/**
 * @file
 * The serve_closed request script: a seeded Zipf draw over a fixed
 * catalogue of (app, dataset) keys, with a fixed share of the items
 * sent as identical pairs.  A pure function of the seed, so equal
 * seeds replay the same traffic.
 */

#ifndef PERFBENCH_SCRIPT_HH
#define PERFBENCH_SCRIPT_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/** One catalogue entry: a non-solver app on a mid-size stand-in. */
struct ServeKey
{
    std::string app;
    std::string dataset;
};

/**
 * The catalogue: six non-solver apps x four mid-size stand-ins, 24
 * keys (each 20-65 ms of simulation at default iterations), within
 * the server's default prepared-cache bound of 32.
 */
const std::vector<ServeKey> &serveCatalogue();

/** One script item: a catalogue index, sent once or as a pair. */
struct ScriptItem
{
    std::size_t key = 0;
    bool paired = false;

    bool operator==(const ScriptItem &) const = default;
};

/**
 * The script of `items` items for `seed`.  Each catalogue key appears
 * in its exact share under Zipf(1) over the catalogue's listed order
 * (stratified, so every seed sends the same mix of work); the seed
 * shuffles their order and marks exactly round(items / 5) of them
 * paired.
 */
std::vector<ScriptItem> makeServeScript(std::uint64_t seed,
                                        std::size_t items);

} // namespace perfbench

#endif // PERFBENCH_SCRIPT_HH
