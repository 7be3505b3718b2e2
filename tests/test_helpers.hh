/**
 * @file
 * Shared helpers for the Sparsepipe test suite.
 */

#ifndef SPARSEPIPE_TESTS_TEST_HELPERS_HH
#define SPARSEPIPE_TESTS_TEST_HELPERS_HH

#include <cmath>
#include <cstring>

#include <gtest/gtest.h>

#include "core/sparsepipe_sim.hh"
#include "obs/metrics.hh"
#include "sparse/csr.hh"
#include "sparse/generate.hh"
#include "util/random.hh"

namespace sparsepipe::testing {

/** Small deterministic test graph (uniform random). */
inline CooMatrix
smallGraph(Idx n = 64, Idx nnz = 512, std::uint64_t seed = 42)
{
    Rng rng(seed);
    return generateUniform(n, nnz, rng);
}

/** Small deterministic skewed graph. */
inline CooMatrix
smallRmat(Idx n = 64, Idx nnz = 512, std::uint64_t seed = 43)
{
    Rng rng(seed);
    return generateRmat(n, nnz, rng);
}

/**
 * Bit equality with NaN as one value class.  IEEE 754 leaves NaN
 * payload propagation unspecified and the compiler may commute FP
 * adds differently per TU, so when *both* operands of an add are
 * NaN the surviving payload is not reproducible even between two
 * scalar builds; sign/payload of NaN is therefore out of contract.
 * Everything else — signed zeros, infinities, subnormals, the last
 * mantissa bit — must match exactly.
 */
inline bool
sameBits(double a, double b)
{
    if (std::isnan(a) || std::isnan(b))
        return std::isnan(a) && std::isnan(b);
    return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/**
 * Two matrices of one compressed form store the same shape, pointers
 * and indices, and values that match by sameBits.
 */
template <typename Matrix>
::testing::AssertionResult
sameArrays(const Matrix &a, const Matrix &b)
{
    if (!(*a.pattern() == *b.pattern()))
        return ::testing::AssertionFailure() << "patterns differ";
    for (std::size_t i = 0; i < a.vals().size(); ++i)
        if (!sameBits(a.vals()[i], b.vals()[i]))
            return ::testing::AssertionFailure()
                   << "value " << i << ": " << a.vals()[i] << " vs "
                   << b.vals()[i];
    return ::testing::AssertionSuccess();
}

/** Max |a-b| over two equal-length vectors, inf-aware. */
inline double
vecError(const std::vector<double> &a, const std::vector<double> &b)
{
    EXPECT_EQ(a.size(), b.size());
    double err = 0.0;
    for (std::size_t i = 0; i < a.size() && i < b.size(); ++i) {
        if (std::isinf(a[i]) && std::isinf(b[i]) &&
            std::signbit(a[i]) == std::signbit(b[i]))
            continue;
        err = std::max(err, std::abs(a[i] - b[i]));
    }
    return err;
}

/** `m` with the same pattern and every value changed. */
inline CsrMatrix
perturbValues(const CsrMatrix &m)
{
    std::vector<Value> vals = m.vals();
    for (std::size_t i = 0; i < vals.size(); ++i)
        vals[i] = vals[i] * 1.75 + 0.125 * static_cast<double>(i % 7 + 1);
    return CsrMatrix::fromParts(m.rows(), m.cols(), m.rowPtr(),
                                m.colIdx(), std::move(vals));
}

/**
 * Two runs report the same thing bit for bit: every recordSimMetrics
 * counter, the bandwidth timeline, the schedule mode and every
 * attribution phase.
 */
inline void
expectSameSimStats(const SimStats &a, const SimStats &b,
                   const std::string &label)
{
    obs::MetricsRegistry ra, rb;
    recordSimMetrics(ra, "sim", a);
    recordSimMetrics(rb, "sim", b);
    EXPECT_EQ(ra.entries(), rb.entries()) << label;
    EXPECT_EQ(a.bw_timeline, b.bw_timeline) << label;
    EXPECT_EQ(a.mode, b.mode) << label;
    ASSERT_EQ(a.attribution.phases.size(), b.attribution.phases.size())
        << label;
    for (std::size_t i = 0; i < a.attribution.phases.size(); ++i) {
        const obs::PhaseCycles &pa = a.attribution.phases[i];
        const obs::PhaseCycles &pb = b.attribution.phases[i];
        EXPECT_TRUE(pa.kind == pb.kind && pa.index == pb.index &&
                    pa.begin == pb.begin && pa.end == pb.end &&
                    pa.compute == pb.compute &&
                    pa.dram_read_stall == pb.dram_read_stall &&
                    pa.dram_write_drain == pb.dram_write_drain &&
                    pa.buffer_swap_wait == pb.buffer_swap_wait)
            << label << ": phase " << i << " differs";
    }
}

} // namespace sparsepipe::testing

#endif // SPARSEPIPE_TESTS_TEST_HELPERS_HH
