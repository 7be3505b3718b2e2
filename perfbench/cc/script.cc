#include "script.hh"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/random.hh"

namespace perfbench {

namespace {

/** Zipf exponent of the request mix: 1, the classic Zipf law, as no
 *  recorded request trace exists to fit one to. */
constexpr double kZipfExponent = 1.0;

/** Share of script items sent as identical pairs: one in five, so a
 *  360-item process coalesces 72 pairs while most requests run alone. */
constexpr double kPairShare = 0.2;

} // namespace

const std::vector<ServeKey> &
serveCatalogue()
{
    static const std::vector<ServeKey> catalogue = [] {
        std::vector<ServeKey> keys;
        for (const char *app : {"pr", "bfs", "sssp", "label", "knn", "kpp"})
            for (const char *dataset : {"g2", "ad", "ro", "co"})
                keys.push_back({app, dataset});
        return keys;
    }();
    return catalogue;
}

std::vector<ScriptItem>
makeServeScript(std::uint64_t seed, std::size_t items)
{
    const std::size_t n = serveCatalogue().size();

    // Each key's share of the script under Zipf over the
    // catalogue in its listed order, rounded to whole items by largest
    // remainder so the quotas sum to `items`.
    std::vector<double> weight(n);
    for (std::size_t r = 0; r < n; ++r)
        weight[r] = 1.0 / std::pow(static_cast<double>(r + 1), kZipfExponent);
    const double total = std::accumulate(weight.begin(), weight.end(), 0.0);
    std::vector<std::size_t> quota(n);
    std::vector<std::pair<double, std::size_t>> remainder(n);
    std::size_t assigned = 0;
    for (std::size_t r = 0; r < n; ++r) {
        const double exact = static_cast<double>(items) * weight[r] / total;
        quota[r] = static_cast<std::size_t>(exact);
        assigned += quota[r];
        remainder[r] = {exact - static_cast<double>(quota[r]), r};
    }
    std::sort(remainder.begin(), remainder.end(),
              [](const auto &a, const auto &b) {
                  return a.first != b.first ? a.first > b.first
                                            : a.second < b.second;
              });
    for (std::size_t i = 0; assigned < items; ++i, ++assigned)
        ++quota[remainder[i % n].second];

    std::vector<ScriptItem> script;
    script.reserve(items);
    for (std::size_t r = 0; r < n; ++r)
        for (std::size_t q = 0; q < quota[r]; ++q)
            script.push_back({r, false});

    // The seed orders the draws and picks which items pair: a
    // Fisher-Yates shuffle, then the first round(items * kPairShare)
    // positions of a second one.  A separate stream from every other
    // use of the workload seed.
    sparsepipe::Rng rng(sparsepipe::mixSeed(seed, 0x5e77e));
    for (std::size_t i = items; i > 1; --i)
        std::swap(script[i - 1], script[rng.nextBelow(i)]);
    const auto pairs = static_cast<std::size_t>(
        std::llround(static_cast<double>(items) * kPairShare));
    std::vector<std::size_t> positions(items);
    std::iota(positions.begin(), positions.end(), std::size_t{0});
    for (std::size_t i = 0; i < pairs && i < items; ++i) {
        std::swap(positions[i], positions[i + rng.nextBelow(items - i)]);
        script[positions[i]].paired = true;
    }
    return script;
}

} // namespace perfbench
