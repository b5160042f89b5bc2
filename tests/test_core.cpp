// Tests for the core utilities: Matrix, dtype vocabulary, fills, the table
// printer and the stopwatch.
#include "core/dtype.hpp"
#include "core/math.hpp"
#include "core/matrix.hpp"
#include "core/random_fill.hpp"
#include "core/stopwatch.hpp"
#include "core/table_printer.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <utility>

using namespace satgpu;

TEST(Matrix, ShapeAndAccess)
{
    Matrix<int> m(3, 4, 7);
    EXPECT_EQ(m.height(), 3);
    EXPECT_EQ(m.width(), 4);
    EXPECT_EQ(m.size(), 12);
    EXPECT_EQ(m.at(2, 3), 7);
    m(1, 2) = 42;
    EXPECT_EQ(m.at(1, 2), 42);
    EXPECT_TRUE(m.in_bounds(2, 3));
    EXPECT_FALSE(m.in_bounds(3, 0));
    EXPECT_FALSE(m.in_bounds(0, -1));
}

TEST(Matrix, AtChecksBounds)
{
    Matrix<int> m(2, 2);
    EXPECT_DEATH((void)m.at(2, 0), "precondition");
}

TEST(Matrix, RowSpanIsContiguous)
{
    Matrix<int> m(2, 3);
    fill_pattern(m);
    auto r1 = m.row(1);
    ASSERT_EQ(r1.size(), 3u);
    EXPECT_EQ(r1[0], m(1, 0));
    EXPECT_EQ(&r1[2], &m(1, 2));
}

TEST(Matrix, TransposeInvolution)
{
    Matrix<int> m(5, 9);
    fill_random(m, 3);
    EXPECT_EQ(transpose(transpose(m)), m);
    EXPECT_EQ(transpose(m).height(), 9);
}

TEST(Matrix, ConvertWidens)
{
    Matrix<std::uint8_t> m(2, 2, 200);
    const auto f = convert<float>(m);
    EXPECT_FLOAT_EQ(f(1, 1), 200.0f);
}

TEST(Matrix, MaxAbsDiff)
{
    Matrix<float> a(2, 2), b(2, 2);
    b(1, 0) = 2.5f;
    EXPECT_DOUBLE_EQ(max_abs_diff(a, b), 2.5);
}

TEST(Matrix, EmptyMatrix)
{
    Matrix<int> m;
    EXPECT_TRUE(m.empty());
    EXPECT_EQ(m.size(), 0);
    const auto t = transpose(m);
    EXPECT_TRUE(t.empty());
}

TEST(Matrix, UninitializedConstructorShapesWithoutFilling)
{
    Matrix<int> m(3, 5, kUninitialized);
    EXPECT_EQ(m.height(), 3);
    EXPECT_EQ(m.width(), 5);
    EXPECT_EQ(m.size(), 15);
    for (std::int64_t i = 0; i < m.size(); ++i)
        m.flat()[static_cast<std::size_t>(i)] = static_cast<int>(i);
    EXPECT_EQ(m(2, 4), 14);
}

TEST(Matrix, LargeBlocksRoundTripThroughTheirOwnMapping)
{
    // Just past the allocator's large-block cut-off (32 MiB): storage comes
    // from a dedicated 2 MiB-aligned mapping instead of malloc.  Value
    // semantics must be unaffected: fill, copy, compare, move, release.
    const std::int64_t h = 2048, w = 4096 + 8;
    Matrix<std::uint32_t> big(h, w, kUninitialized);
    ASSERT_GE(static_cast<std::size_t>(big.size()) * sizeof(std::uint32_t),
              std::size_t{32} << 20);
#if defined(__linux__)
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(big.flat().data()) %
                  (std::uintptr_t{2} << 20),
              0u);
#endif
    for (std::int64_t y = 0; y < h; ++y)
        big(y, w - 1) = static_cast<std::uint32_t>(y);
    big(0, 0) = 7;
    const Matrix<std::uint32_t> copy = big;
    EXPECT_NE(copy.flat().data(), big.flat().data());
    EXPECT_EQ(copy(h - 1, w - 1), static_cast<std::uint32_t>(h - 1));
    EXPECT_EQ(copy(0, 0), 7u);
    const Matrix<std::uint32_t> filled(h, w, 3u);
    EXPECT_EQ(filled(h - 1, w - 1), 3u);
    const Matrix<std::uint32_t> moved = std::move(big);
    EXPECT_EQ(moved(h - 1, w - 1), static_cast<std::uint32_t>(h - 1));
}

TEST(CeilDiv, SignedRoundsUp)
{
    EXPECT_EQ(ceil_div(std::int64_t{0}, std::int64_t{32}), 0);
    EXPECT_EQ(ceil_div(std::int64_t{1}, std::int64_t{32}), 1);
    EXPECT_EQ(ceil_div(std::int64_t{32}, std::int64_t{32}), 1);
    EXPECT_EQ(ceil_div(std::int64_t{33}, std::int64_t{32}), 2);
    EXPECT_EQ(ceil_div(std::int64_t{97}, std::int64_t{32}), 4);
    static_assert(ceil_div(std::int64_t{130}, std::int64_t{32}) == 5);
}

TEST(CeilDiv, UnsignedCounterDomain)
{
    // The profiler divides 64-bit event tallies; exercise values past the
    // signed overload's comfortable range.
    EXPECT_EQ(ceil_div(std::uint64_t{0}, std::uint64_t{32}), 0U);
    EXPECT_EQ(ceil_div(std::uint64_t{31}, std::uint64_t{32}), 1U);
    const std::uint64_t big = (std::uint64_t{1} << 63) + 1;
    EXPECT_EQ(ceil_div(big, std::uint64_t{2}), (std::uint64_t{1} << 62) + 1);
}

TEST(Dtype, NamesMatchPaperNotation)
{
    EXPECT_EQ(dtype_name(Dtype::u8_), "8u");
    EXPECT_EQ(dtype_name(Dtype::i32_), "32s");
    EXPECT_EQ(dtype_name(Dtype::f64_), "64f");
    EXPECT_EQ(pair_name(make_pair_of<u8, u32>()), "8u32u");
    EXPECT_EQ(pair_name(make_pair_of<f32, f32>()), "32f32f");
}

TEST(Dtype, SizesAndTags)
{
    EXPECT_EQ(dtype_size(Dtype::u8_), 1u);
    EXPECT_EQ(dtype_size(Dtype::f32_), 4u);
    EXPECT_EQ(dtype_size(Dtype::f64_), 8u);
    EXPECT_EQ(dtype_of<u32>::value, Dtype::u32_);
}

TEST(RandomFill, DeterministicPerSeed)
{
    Matrix<int> a(10, 10), b(10, 10), c(10, 10);
    fill_random(a, 5);
    fill_random(b, 5);
    fill_random(c, 6);
    EXPECT_EQ(a, b);
    EXPECT_NE(a, c);
}

TEST(RandomFill, DefaultRangeIsSmallNonNegative)
{
    Matrix<float> m(50, 50);
    fill_random(m, 9);
    for (const auto v : m.flat()) {
        EXPECT_GE(v, 0.0f);
        EXPECT_LE(v, 15.0f);
        EXPECT_EQ(v, std::floor(v)); // integer-valued: exact float sums
    }
}

TEST(RandomFill, ExplicitRangeRespected)
{
    Matrix<std::uint8_t> m(40, 40);
    fill_random(m, 2, std::uint8_t{100}, std::uint8_t{110});
    for (const auto v : m.flat()) {
        EXPECT_GE(v, 100);
        EXPECT_LE(v, 110);
    }
}

TEST(TablePrinter, AlignsColumns)
{
    TablePrinter t({"a", "long_header"});
    t.add_row({"xxxxxx", "1"});
    std::ostringstream os;
    t.print(os);
    const auto s = os.str();
    // Header row and data row must place column 2 at the same offset.
    const auto lines_end1 = s.find('\n');
    const auto header = s.substr(0, lines_end1);
    EXPECT_NE(header.find("long_header"), std::string::npos);
    EXPECT_EQ(t.rows(), 1u);
}

TEST(TablePrinter, CsvOutput)
{
    TablePrinter t({"x", "y"});
    t.add_row({"1", "2"});
    t.add_row({"3", "4"});
    std::ostringstream os;
    t.write_csv(os);
    EXPECT_EQ(os.str(), "x,y\n1,2\n3,4\n");
}

TEST(TablePrinter, RowArityChecked)
{
    TablePrinter t({"only"});
    EXPECT_DEATH(t.add_row({"a", "b"}), "precondition");
}

TEST(TablePrinter, Formatting)
{
    EXPECT_EQ(TablePrinter::fmt(3.14159, 2), "3.14");
    EXPECT_EQ(TablePrinter::fmt(2.0, 0), "2");
    EXPECT_EQ(TablePrinter::fmt_int(-42), "-42");
}

TEST(Stopwatch, MeasuresElapsedTime)
{
    Stopwatch sw;
    double sink = 0;
    for (int i = 0; i < 100000; ++i)
        sink += i;
    EXPECT_GT(sink, 0.0); // also defeats optimizing the loop away
    EXPECT_GT(sw.elapsed_seconds(), 0.0);
    EXPECT_NEAR(sw.elapsed_ms(), sw.elapsed_seconds() * 1e3,
                sw.elapsed_ms() * 0.5);
    sw.reset();
    EXPECT_LT(sw.elapsed_seconds(), 1.0);
}
