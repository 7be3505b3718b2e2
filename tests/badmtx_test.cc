/**
 * @file
 * Table-driven malformed-input corpus for the MatrixMarket reader.
 *
 * Every file under tests/corpus/badmtx/ (compiled in as
 * SPARSEPIPE_BADMTX_DIR) is a way a user-supplied .mtx file can be
 * broken; the reader must answer each with the exact StatusCode the
 * table pins — never a crash, never a silently-wrong matrix.  The
 * suite also fails when a corpus file is missing from the table (or
 * vice versa), so the two cannot drift apart.
 */

#include <filesystem>
#include <map>
#include <ostream>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "sparse/io.hh"

namespace sparsepipe {
namespace {

struct Expected
{
    StatusCode code;
    /** Substring the status message must carry (diagnosability). */
    std::string needle;
};

/** Readable test names: without it gtest prints the struct's raw
 *  bytes, a heap pointer included, so names change per build. */
void
PrintTo(const Expected &e, std::ostream *os)
{
    *os << statusCodeName(e.code) << ": " << e.needle;
}

const std::map<std::string, Expected> &
corpusTable()
{
    static const std::map<std::string, Expected> table = {
        {"bad_banner.mtx",
         {StatusCode::InvalidInput, "unsupported header"}},
        {"truncated.mtx", {StatusCode::InvalidInput, "truncated"}},
        {"garbage_size.mtx",
         {StatusCode::InvalidInput, "bad size line"}},
        {"index_out_of_range.mtx",
         {StatusCode::InvalidInput, "out-of-range index"}},
        {"zero_index.mtx",
         {StatusCode::InvalidInput, "out-of-range index"}},
        {"negative_size.mtx",
         {StatusCode::InvalidInput, "negative size line"}},
        {"overflow_size.mtx",
         {StatusCode::InvalidInput, "bad size line"}},
        {"empty.mtx", {StatusCode::InvalidInput, "is empty"}},
        {"unsupported_field.mtx",
         {StatusCode::InvalidInput, "unsupported field"}},
        {"missing_value.mtx",
         {StatusCode::InvalidInput, "lacks value"}},
        {"no_size_line.mtx",
         {StatusCode::InvalidInput, "no size line"}},
    };
    return table;
}

TEST(BadMtxCorpus, TableAndDirectoryAgree)
{
    namespace fs = std::filesystem;
    const fs::path dir = SPARSEPIPE_BADMTX_DIR;
    ASSERT_TRUE(fs::is_directory(dir)) << dir;
    std::set<std::string> on_disk;
    for (const fs::directory_entry &e : fs::directory_iterator(dir))
        if (e.path().extension() == ".mtx")
            on_disk.insert(e.path().filename().string());
    for (const auto &[name, expected] : corpusTable())
        EXPECT_TRUE(on_disk.count(name))
            << name << " in the table but not on disk";
    for (const std::string &name : on_disk)
        EXPECT_TRUE(corpusTable().count(name))
            << name << " on disk but not in the table";
}

class BadMtxCase
    : public ::testing::TestWithParam<
          std::pair<const std::string, Expected>>
{
};

TEST_P(BadMtxCase, ReaderAnswersWithPinnedStatus)
{
    const auto &[name, expected] = GetParam();
    const std::string path =
        std::string(SPARSEPIPE_BADMTX_DIR) + "/" + name;
    StatusOr<CooMatrix> read = readMatrixMarket(path);
    ASSERT_FALSE(read.ok())
        << name << " parsed despite being malformed";
    EXPECT_EQ(read.status().code(), expected.code)
        << name << ": " << read.status().toString();
    EXPECT_NE(read.status().toString().find(expected.needle),
              std::string::npos)
        << name << ": " << read.status().toString();
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, BadMtxCase, ::testing::ValuesIn(corpusTable()),
    [](const ::testing::TestParamInfo<
        std::pair<const std::string, Expected>> &info) {
        std::string label;
        for (char c : info.param.first)
            if ((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9'))
                label += c;
        return label;
    });

} // namespace
} // namespace sparsepipe
