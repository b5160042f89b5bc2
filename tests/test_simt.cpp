// Unit tests for the SIMT simulator substrate: lane vectors, shuffle
// semantics (checked against the CUDA __shfl_*_sync definitions), bank
// conflict and coalescing analysis, and the coroutine block scheduler.
#include "simt/access_analysis.hpp"
#include "simt/engine.hpp"
#include "simt/global_memory.hpp"
#include "simt/lane_vec.hpp"
#include "simt/shared_memory.hpp"
#include "simt/shuffle.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <span>
#include <utility>
#include <vector>

namespace simt = satgpu::simt;
using simt::kWarpSize;
using simt::LaneMask;
using simt::LaneVec;

namespace {

LaneVec<int> iota_vec(int start = 0)
{
    LaneVec<int> v;
    for (int l = 0; l < kWarpSize; ++l)
        v.set(l, start + l);
    return v;
}

} // namespace

// ---------------------------------------------------------------- LaneVec --

TEST(LaneVec, BroadcastAndIndex)
{
    const auto b = LaneVec<int>::broadcast(7);
    const auto idx = LaneVec<int>::lane_index();
    for (int l = 0; l < kWarpSize; ++l) {
        EXPECT_EQ(b.get(l), 7);
        EXPECT_EQ(idx.get(l), l);
    }
}

TEST(LaneVec, UncountedOperatorsDoNotTouchCounters)
{
    simt::PerfCounters c;
    simt::CounterScope scope(c);
    const auto a = iota_vec();
    const auto r = a + a * 3 - LaneVec<int>::broadcast(1);
    EXPECT_EQ(r.get(5), 5 + 15 - 1);
    EXPECT_EQ(c.lane_add, 0u);
    EXPECT_EQ(c.lane_mul, 0u);
}

TEST(LaneVec, CountedAddCountsAllLanes)
{
    simt::PerfCounters c;
    simt::CounterScope scope(c);
    const auto r = simt::vadd(iota_vec(), iota_vec());
    EXPECT_EQ(r.get(4), 8);
    EXPECT_EQ(c.lane_add, static_cast<std::uint64_t>(kWarpSize));
}

TEST(LaneVec, PredicatedAddCountsActiveLanesOnly)
{
    simt::PerfCounters c;
    simt::CounterScope scope(c);
    const LaneMask m = 0x0000ffffu; // lanes 0..15
    const auto r = simt::vadd_where(m, iota_vec(), iota_vec());
    EXPECT_EQ(c.lane_add, 16u);
    EXPECT_EQ(r.get(3), 6);   // active: doubled
    EXPECT_EQ(r.get(20), 20); // inactive: unchanged
}

TEST(LaneVec, SelectPicksPerLane)
{
    const LaneMask m = 0xaaaaaaaau; // odd lanes
    const auto r = simt::vselect(m, LaneVec<int>::broadcast(1),
                                 LaneVec<int>::broadcast(2));
    EXPECT_EQ(r.get(0), 2);
    EXPECT_EQ(r.get(1), 1);
}

TEST(LaneVec, ComparisonsProduceMasks)
{
    const auto lane = LaneVec<int>::lane_index();
    const LaneMask m = lane < LaneVec<int>::broadcast(4);
    EXPECT_EQ(m, 0xfu);
    EXPECT_EQ(simt::active_lane_count(m), 4);
}

// The shared predication helper behind every ragged tile edge: the warp
// covers lanes [first, first + 32) of a row that ends at `limit`.
TEST(LaneVec, LanesInRangeSegmentEdges)
{
    // 31 / 32 / 33-wide rows seen from the first warp-segment.
    EXPECT_EQ(simt::lanes_in_range(0, 31), 0x7fffffffu);
    EXPECT_EQ(simt::lanes_in_range(0, 32), simt::kFullMask);
    EXPECT_EQ(simt::lanes_in_range(0, 33), simt::kFullMask);
    // The 33-wide row's second segment keeps exactly one lane alive; a
    // 31- or 32-wide row has no second segment at all.
    EXPECT_EQ(simt::lanes_in_range(32, 33), 0x1u);
    EXPECT_EQ(simt::lanes_in_range(32, 32), 0u);
    EXPECT_EQ(simt::lanes_in_range(32, 31), 0u);
    // Empty and inverted ranges are all-off, not UB.
    EXPECT_EQ(simt::lanes_in_range(5, 5), 0u);
    EXPECT_EQ(simt::lanes_in_range(10, 3), 0u);
    EXPECT_EQ(simt::lanes_in_range(64, 33), 0u);
}

TEST(LaneVec, LanesInRangePredicatedCopyAtRaggedWidths)
{
    simt::Engine eng;
    for (const std::int64_t width : {31, 32, 33}) {
        simt::DeviceBuffer<int> src(width), dst(width + 1, -1);
        for (std::int64_t i = 0; i < width; ++i)
            src.host()[static_cast<std::size_t>(i)] = static_cast<int>(i);
        const auto warps = (width + kWarpSize - 1) / kWarpSize;
        const simt::LaunchConfig cfg{{1, 1, 1}, {warps * kWarpSize, 1, 1}};
        eng.launch({"ragged_copy", 1, 0},
                   cfg, [&](simt::WarpCtx& w) -> simt::KernelTask {
                       const std::int64_t first = w.warp_id() * kWarpSize;
                       const LaneMask m = simt::lanes_in_range(first, width);
                       const auto idx =
                           LaneVec<std::int64_t>::lane_index() +
                           LaneVec<std::int64_t>::broadcast(first);
                       dst.store(idx, src.load(idx, m), m);
                       co_return;
                   });
        for (std::int64_t i = 0; i < width; ++i)
            EXPECT_EQ(dst.host()[static_cast<std::size_t>(i)], i)
                << "width " << width;
        // The guard element past the row must stay untouched.
        EXPECT_EQ(dst.host()[static_cast<std::size_t>(width)], -1)
            << "width " << width;
    }
}

// ---------------------------------------------------------------- Shuffle --

TEST(Shuffle, UpMatchesCudaSemantics)
{
    const auto v = iota_vec(100);
    const auto r = simt::shfl_up(v, 3);
    for (int l = 0; l < kWarpSize; ++l)
        EXPECT_EQ(r.get(l), l < 3 ? 100 + l : 100 + l - 3) << "lane " << l;
}

TEST(Shuffle, DownMatchesCudaSemantics)
{
    const auto v = iota_vec();
    const auto r = simt::shfl_down(v, 2);
    for (int l = 0; l < kWarpSize; ++l)
        EXPECT_EQ(r.get(l), l + 2 < kWarpSize ? l + 2 : l) << "lane " << l;
}

TEST(Shuffle, BroadcastLane)
{
    const auto v = iota_vec();
    const auto r = simt::shfl(v, 13);
    for (int l = 0; l < kWarpSize; ++l)
        EXPECT_EQ(r.get(l), 13);
}

TEST(Shuffle, SegmentedBroadcastWidth8)
{
    // width=8: each 8-lane segment broadcasts its own lane (seg*8 + 3).
    const auto v = iota_vec();
    const auto r = simt::shfl(v, 3, 8);
    for (int l = 0; l < kWarpSize; ++l)
        EXPECT_EQ(r.get(l), (l / 8) * 8 + 3) << "lane " << l;
}

TEST(Shuffle, SegmentedUpStopsAtSegmentBoundary)
{
    const auto v = iota_vec();
    const auto r = simt::shfl_up(v, 1, 4);
    for (int l = 0; l < kWarpSize; ++l)
        EXPECT_EQ(r.get(l), l % 4 == 0 ? l : l - 1) << "lane " << l;
}

TEST(Shuffle, XorExchangesButterflyPartners)
{
    const auto v = iota_vec();
    const auto r = simt::shfl_xor(v, 1);
    for (int l = 0; l < kWarpSize; ++l)
        EXPECT_EQ(r.get(l), l ^ 1);
}

TEST(Shuffle, EachCallCountsOneWarpInstruction)
{
    simt::PerfCounters c;
    simt::CounterScope scope(c);
    const auto v = iota_vec();
    (void)simt::shfl_up(v, 1);
    (void)simt::shfl(v, 0);
    (void)simt::shfl_down(v, 1);
    (void)simt::shfl_xor(v, 16);
    EXPECT_EQ(c.warp_shfl, 4u);
}

// Segment edges of all four shuffles at every paper-relevant width: lanes
// whose source would cross a segment boundary keep their own value (up /
// down / xor) or wrap mod width (shfl's CUDA-defined srcLane mod).
TEST(Shuffle, SegmentEdgesAtAllWidths)
{
    const auto v = iota_vec();
    for (const int width : {4, 8, 16, 32}) {
        // up: first `delta` lanes of each segment keep their value.
        const auto up = simt::shfl_up(v, 2, width);
        for (int l = 0; l < kWarpSize; ++l)
            EXPECT_EQ(up.get(l), l % width < 2 ? l : l - 2)
                << "up width " << width << " lane " << l;

        // down: last `delta` lanes of each segment keep their value.
        const auto down = simt::shfl_down(v, 2, width);
        for (int l = 0; l < kWarpSize; ++l)
            EXPECT_EQ(down.get(l), l % width >= width - 2 ? l : l + 2)
                << "down width " << width << " lane " << l;

        // xor with the segment's top bit: partners stay inside the segment.
        const auto xo = simt::shfl_xor(v, width / 2, width);
        for (int l = 0; l < kWarpSize; ++l)
            EXPECT_EQ(xo.get(l), l ^ (width / 2))
                << "xor width " << width << " lane " << l;

        // shfl: in-range src broadcasts per segment...
        const auto bc = simt::shfl(v, width - 1, width);
        for (int l = 0; l < kWarpSize; ++l)
            EXPECT_EQ(bc.get(l), (l / width) * width + width - 1)
                << "shfl width " << width << " lane " << l;
        // ...and an out-of-range src wraps mod width (CUDA/PTX masking).
        const auto wrapped = simt::shfl(v, width + 1, width);
        for (int l = 0; l < kWarpSize; ++l)
            EXPECT_EQ(wrapped.get(l), (l / width) * width + 1)
                << "shfl-wrap width " << width << " lane " << l;
    }
}

// A negative srcLane has no defined hardware meaning; the historical
// `src_lane & (width - 1)` happened to wrap it, now it aborts.
TEST(ShuffleDeathTest, NegativeSourceLaneAborts)
{
    const auto v = iota_vec();
    EXPECT_DEATH((void)simt::shfl(v, -1), "src_lane");
}

// ------------------------------------------------------- Access analysis --

namespace {

simt::ByteAddrs addrs_from_words(const std::array<int, kWarpSize>& words,
                                 int word_bytes = 4)
{
    simt::ByteAddrs a{};
    for (int l = 0; l < kWarpSize; ++l)
        a[static_cast<std::size_t>(l)] =
            static_cast<std::int64_t>(words[static_cast<std::size_t>(l)]) *
            word_bytes;
    return a;
}

} // namespace

TEST(BankConflicts, ContiguousRowAccessIsConflictFree)
{
    std::array<int, kWarpSize> w{};
    std::iota(w.begin(), w.end(), 0);
    EXPECT_EQ(simt::smem_conflict_passes(addrs_from_words(w), simt::kFullMask,
                                         4),
              1);
}

TEST(BankConflicts, Stride32ColumnAccessSerializes32Way)
{
    // Column access of an UNPADDED 32x32 word matrix: lane l touches word
    // l*32 -- every lane hits bank 0.
    std::array<int, kWarpSize> w{};
    for (int l = 0; l < kWarpSize; ++l)
        w[static_cast<std::size_t>(l)] = l * 32;
    EXPECT_EQ(simt::smem_conflict_passes(addrs_from_words(w), simt::kFullMask,
                                         4),
              32);
}

TEST(BankConflicts, PaddedStride33ColumnAccessIsConflictFree)
{
    // Alg. 5 line 2: the 32x33 padding staggers the column across banks.
    std::array<int, kWarpSize> w{};
    for (int l = 0; l < kWarpSize; ++l)
        w[static_cast<std::size_t>(l)] = l * 33;
    EXPECT_EQ(simt::smem_conflict_passes(addrs_from_words(w), simt::kFullMask,
                                         4),
              1);
}

TEST(BankConflicts, SameWordBroadcastsWithoutConflict)
{
    std::array<int, kWarpSize> w{};
    w.fill(17);
    EXPECT_EQ(simt::smem_conflict_passes(addrs_from_words(w), simt::kFullMask,
                                         4),
              1);
}

TEST(BankConflicts, SameBankDifferentWordsConflict)
{
    // Lanes alternate between word 0 and word 32 (both bank 0).
    std::array<int, kWarpSize> w{};
    for (int l = 0; l < kWarpSize; ++l)
        w[static_cast<std::size_t>(l)] = (l % 2) * 32;
    EXPECT_EQ(simt::smem_conflict_passes(addrs_from_words(w), simt::kFullMask,
                                         4),
              2);
}

TEST(BankConflicts, DoubleWidthAccessSplitsIntoTwoHalfWarpTransactions)
{
    // Contiguous 8-byte accesses: one conflict-free transaction per
    // half-warp (each half-warp's 32 words cover all 32 banks once).
    simt::ByteAddrs a{};
    for (int l = 0; l < kWarpSize; ++l)
        a[static_cast<std::size_t>(l)] = static_cast<std::int64_t>(l) * 8;
    EXPECT_EQ(simt::smem_conflict_passes(a, simt::kFullMask, 8), 2);
}

TEST(BankConflicts, PaddedDoubleColumnAccessIsConflictFree)
{
    // Column access of the padded 32x33 DOUBLE matrix (Alg. 5 with T=64f):
    // within each half-warp, lane l touches words l*66 and l*66+1, which
    // land on the 16 even and 16 odd banks exactly once -> 2 clean
    // transactions, same as the contiguous case.
    simt::ByteAddrs a{};
    for (int l = 0; l < kWarpSize; ++l)
        a[static_cast<std::size_t>(l)] = static_cast<std::int64_t>(l) * 33 * 8;
    EXPECT_EQ(simt::smem_conflict_passes(a, simt::kFullMask, 8), 2);
}

TEST(BankConflicts, UnpaddedDoubleColumnAccessSerializes)
{
    // Without padding (stride 32 doubles = 64 words), every lane of a
    // half-warp maps to bank 0/1: 16 distinct words per bank per
    // transaction -> 32 passes total.
    simt::ByteAddrs a{};
    for (int l = 0; l < kWarpSize; ++l)
        a[static_cast<std::size_t>(l)] = static_cast<std::int64_t>(l) * 32 * 8;
    EXPECT_EQ(simt::smem_conflict_passes(a, simt::kFullMask, 8), 32);
}

TEST(BankConflicts, QuadWordAccessSplitsIntoQuarterWarps)
{
    // 16-byte (uint4) contiguous accesses, as in OpenCV's 8u shuffle path:
    // four conflict-free quarter-warp transactions.
    simt::ByteAddrs a{};
    for (int l = 0; l < kWarpSize; ++l)
        a[static_cast<std::size_t>(l)] = static_cast<std::int64_t>(l) * 16;
    EXPECT_EQ(simt::smem_conflict_passes(a, simt::kFullMask, 16), 4);
}

TEST(BankConflicts, InactiveLanesDoNotParticipate)
{
    std::array<int, kWarpSize> w{};
    for (int l = 0; l < kWarpSize; ++l)
        w[static_cast<std::size_t>(l)] = l * 32; // all bank 0
    // Only lanes 0 and 1 active -> 2-way, not 32-way.
    EXPECT_EQ(simt::smem_conflict_passes(addrs_from_words(w), 0x3u, 4), 2);
}

TEST(Coalescing, ContiguousFloatAccessTouchesFourSectors)
{
    simt::ByteAddrs a{};
    for (int l = 0; l < kWarpSize; ++l)
        a[static_cast<std::size_t>(l)] = static_cast<std::int64_t>(l) * 4;
    EXPECT_EQ(simt::gmem_sectors_touched(a, simt::kFullMask, 4), 4);
    EXPECT_EQ(simt::gmem_segments_touched(a, simt::kFullMask, 4), 1);
}

TEST(Coalescing, StridedAccessTouchesThirtyTwoSectors)
{
    // Column walk of a 1024-wide float image: 4096-byte stride.
    simt::ByteAddrs a{};
    for (int l = 0; l < kWarpSize; ++l)
        a[static_cast<std::size_t>(l)] = static_cast<std::int64_t>(l) * 4096;
    EXPECT_EQ(simt::gmem_sectors_touched(a, simt::kFullMask, 4), 32);
}

TEST(Coalescing, ContiguousByteAccessTouchesOneSector)
{
    simt::ByteAddrs a{};
    for (int l = 0; l < kWarpSize; ++l)
        a[static_cast<std::size_t>(l)] = l;
    EXPECT_EQ(simt::gmem_sectors_touched(a, simt::kFullMask, 1), 1);
}

TEST(Coalescing, MisalignedAccessTouchesExtraSector)
{
    simt::ByteAddrs a{};
    for (int l = 0; l < kWarpSize; ++l)
        a[static_cast<std::size_t>(l)] = 16 + static_cast<std::int64_t>(l) * 4;
    EXPECT_EQ(simt::gmem_sectors_touched(a, simt::kFullMask, 4), 5);
}

// ------------------------------------------------------------ SharedMemory --

TEST(SharedMemory, NamedAllocationIsIdempotentAcrossWarps)
{
    simt::SharedMemory smem(4096);
    auto a = smem.alloc<float>("buf", 64);
    auto b = smem.alloc<float>("buf", 64);
    const auto idx = LaneVec<std::int64_t>::lane_index();
    LaneVec<float> val;
    for (int l = 0; l < kWarpSize; ++l)
        val.set(l, static_cast<float>(l) * 1.5f);
    a.store(idx, val);
    const auto back = b.load(idx);
    for (int l = 0; l < kWarpSize; ++l)
        EXPECT_FLOAT_EQ(back.get(l), static_cast<float>(l) * 1.5f);
}

TEST(SharedMemory, CapacityIsEnforced)
{
    simt::SharedMemory smem(128);
    EXPECT_DEATH((void)smem.alloc<double>("big", 1024), "capacity");
}

TEST(SharedMemory, OverAlignedAllocationsRespectAlignof)
{
    // A 1-byte allocation first, then an over-aligned element type: the
    // offset must honor alignof(T), not the historical fixed 8.
    simt::SharedMemory smem(4096);
    (void)smem.alloc<char>("pad", 1);
    auto big = smem.alloc<long double>("wide", 1);
    static_assert(alignof(long double) > 8);
    EXPECT_EQ(smem.bytes_used(),
              static_cast<std::int64_t>(alignof(long double) +
                                        sizeof(long double)));
    // base() asserts alignment internally; a store/load round trip proves
    // the view is usable.
    big.store(LaneVec<std::int64_t>::broadcast(0),
              LaneVec<long double>::broadcast(2.5L), 0x1u);
    EXPECT_EQ(big.load(LaneVec<std::int64_t>::broadcast(0), 0x1u).get(0),
              2.5L);
}

TEST(SharedMemory, Alignof8AndBelowKeepsHistoricalLayout)
{
    // The alignment fix must not move any allocation of an alignof<=8
    // type: offsets still round up to 8 (the bank-conflict goldens and
    // the benchmark JSON depend on this layout).
    simt::SharedMemory smem(4096);
    (void)smem.alloc<char>("a", 3);
    (void)smem.alloc<float>("b", 1);
    EXPECT_EQ(smem.bytes_used(), 8 + 4); // float lands at 8, not 4
    (void)smem.alloc<double>("c", 2);
    EXPECT_EQ(smem.bytes_used(), 16 + 16);
}

TEST(SharedMemory, ConflictCountersAccumulate)
{
    simt::PerfCounters c;
    simt::CounterScope scope(c);
    simt::SharedMemory smem(32 * 33 * 4 + 64);
    auto view = smem.alloc<int>("tile", 32 * 33);

    // Row store (conflict free), then unpadded-style column load (33-stride,
    // also conflict free thanks to padding).
    const auto lane = LaneVec<std::int64_t>::lane_index();
    view.store(lane, LaneVec<int>::broadcast(1));
    (void)view.load(lane * std::int64_t{33});
    EXPECT_EQ(c.smem_st_req, 1u);
    EXPECT_EQ(c.smem_st_trans, 1u);
    EXPECT_EQ(c.smem_ld_req, 1u);
    EXPECT_EQ(c.smem_ld_trans, 1u);

    // 32-stride column load serializes 32-way.
    (void)view.load(lane * std::int64_t{32});
    EXPECT_EQ(c.smem_ld_trans, 1u + 32u);
}

// ------------------------------------------------------------ DeviceBuffer --

TEST(DeviceBuffer, RoundTripsMatrices)
{
    // A read-only view sees the caller's matrix, and stores through a
    // mutable view land in the caller's matrix; to_matrix snapshots it.
    satgpu::Matrix<int> m(3, 5);
    for (std::int64_t y = 0; y < 3; ++y)
        for (std::int64_t x = 0; x < 5; ++x)
            m(y, x) = static_cast<int>(10 * y + x);
    const auto in = simt::DeviceBuffer<int>::read_only_view(m.flat());
    EXPECT_EQ(in.to_matrix(3, 5), m);

    satgpu::Matrix<int> dst(3, 5);
    auto out = simt::DeviceBuffer<int>::view(dst.flat());
    const auto lane = simt::LaneVec<std::int64_t>::lane_index();
    for (std::int64_t base = 0; base < m.size(); base += simt::kWarpSize) {
        const auto mask = simt::lanes_in_range(base, m.size());
        out.store(lane + base, in.load(lane + base, mask), mask);
    }
    EXPECT_EQ(dst, m);
}

TEST(DeviceBuffer, CoalescedLoadCountsSectors)
{
    simt::PerfCounters c;
    simt::CounterScope scope(c);
    simt::DeviceBuffer<float> buf(1024, 2.0f);
    const auto v = buf.load(LaneVec<std::int64_t>::lane_index());
    EXPECT_FLOAT_EQ(v.get(31), 2.0f);
    EXPECT_EQ(c.gmem_ld_req, 1u);
    EXPECT_EQ(c.gmem_ld_sectors, 4u);
    EXPECT_EQ(c.gmem_bytes_ld, 32u * 4u);
}

TEST(DeviceBuffer, InactiveLanesAreUntouched)
{
    simt::PerfCounters c;
    simt::CounterScope scope(c);
    simt::DeviceBuffer<int> buf(64, 0);
    buf.store(LaneVec<std::int64_t>::lane_index(), LaneVec<int>::broadcast(9),
              0x1u);
    EXPECT_EQ(buf.host()[0], 9);
    EXPECT_EQ(buf.host()[1], 0);
    EXPECT_EQ(c.gmem_st_sectors, 1u);
    EXPECT_EQ(c.gmem_bytes_st, 4u);
}

// ------------------------------------------------------- DeviceBuffer views --

TEST(DeviceBufferView, AliasesCallerStorage)
{
    satgpu::Matrix<int> m(2, 40, 0);
    auto v = simt::DeviceBuffer<int>::view(m.flat());
    EXPECT_EQ(v.size(), m.size());
    EXPECT_EQ(v.host().data(), m.flat().data());
    v.store_row(3, LaneVec<int>::broadcast(5));
    EXPECT_EQ(m(0, 2), 0);
    EXPECT_EQ(m(0, 3), 5);
    EXPECT_EQ(m(0, 34), 5);
    EXPECT_EQ(m(0, 35), 0);
}

TEST(DeviceBufferView, CopyOfViewAliasesSameStorage)
{
    std::vector<int> storage(64, 0);
    const auto v = simt::DeviceBuffer<int>::view(storage);
    auto copy = v;
    EXPECT_EQ(copy.host().data(), storage.data());
    copy.store(LaneVec<std::int64_t>::broadcast(7), LaneVec<int>::broadcast(9),
               0x1u);
    EXPECT_EQ(storage[7], 9);
    EXPECT_EQ(v.host()[7], 9);

    simt::DeviceBuffer<int> assigned(4, -1);
    assigned = v;
    EXPECT_EQ(assigned.host().data(), storage.data());
    EXPECT_EQ(assigned.size(), 64);
}

TEST(DeviceBufferView, CopyOfOwnedBufferDeepCopies)
{
    simt::DeviceBuffer<int> owned(64, 3);
    auto copy = owned;
    EXPECT_NE(copy.host().data(), owned.host().data());
    copy.store_row(0, LaneVec<int>::broadcast(8));
    EXPECT_EQ(copy.host()[0], 8);
    EXPECT_EQ(owned.host()[0], 3);

    simt::DeviceBuffer<int> assigned;
    assigned = owned;
    EXPECT_NE(assigned.host().data(), owned.host().data());
    EXPECT_TRUE(std::ranges::equal(assigned.host(), owned.host()));
}

TEST(DeviceBufferView, MoveEmptiesTheSource)
{
    simt::DeviceBuffer<int> owned(64, 3);
    const int* const storage = owned.host().data();
    simt::DeviceBuffer<int> moved(std::move(owned));
    EXPECT_EQ(moved.host().data(), storage); // no reallocation
    EXPECT_EQ(moved.size(), 64);
    EXPECT_EQ(owned.size(), 0); // NOLINT(bugprone-use-after-move)
    EXPECT_TRUE(owned.host().empty());

    std::vector<int> backing(32, 1);
    auto v = simt::DeviceBuffer<int>::read_only_view(backing);
    simt::DeviceBuffer<int> target;
    target = std::move(v);
    EXPECT_EQ(std::as_const(target).host().data(), backing.data());
    EXPECT_DEATH((void)target.host(), "read-only view"); // still read-only
    EXPECT_EQ(v.size(), 0); // NOLINT(bugprone-use-after-move)
    EXPECT_TRUE(std::as_const(v).host().empty());
}

TEST(DeviceBufferView, ReadOnlyViewLoadsButNeverWrites)
{
    const std::vector<int> backing(64, 4);
    auto v = simt::DeviceBuffer<int>::read_only_view(backing);
    EXPECT_EQ(v.load_row(32).get(31), 4);
    EXPECT_DEATH(v.store_row(0, LaneVec<int>::broadcast(1)),
                 "read-only view");
    EXPECT_DEATH(v.store(LaneVec<std::int64_t>::broadcast(0),
                         LaneVec<int>::broadcast(1), 0x1u),
                 "read-only view");
    EXPECT_DEATH((void)v.atomic_add(LaneVec<std::int64_t>::broadcast(0),
                                    LaneVec<int>::broadcast(1), 0x1u),
                 "read-only view");
    EXPECT_DEATH((void)v.host(), "read-only view");
    EXPECT_EQ(backing[0], 4);
}

TEST(DeviceBufferView, OutOfRangeLoadRowOnViewDies)
{
    // A view of the first 40 elements of a larger allocation: the bounds
    // are the view's, not the backing storage's, on both load paths.
    std::vector<int> backing(128, 0);
    const auto v = simt::DeviceBuffer<int>::view(
        std::span<int>(backing).first(40));
    (void)v.load_row(8); // [8, 40) is in range
    EXPECT_DEATH((void)v.load_row(9), "gmem load out of bounds");
    EXPECT_DEATH((void)v.load_row(-1), "gmem load out of bounds");
    EXPECT_DEATH(
        {
            simt::PerfCounters c;
            simt::CounterScope scope(c);
            (void)v.load_row(9);
        },
        "gmem load out of bounds");
}

TEST(DeviceBufferView, CountersMatchOwnedBuffer)
{
    // Accounting is index-based, so a view and an owned buffer holding
    // the same elements record identical counters.
    simt::DeviceBuffer<float> owned(1024, 2.0f);
    std::vector<float> backing(1024, 2.0f);
    auto v = simt::DeviceBuffer<float>::view(backing);
    const auto run = [](simt::DeviceBuffer<float>& b) {
        simt::PerfCounters c;
        simt::CounterScope scope(c);
        (void)b.load_row(5);
        b.store(LaneVec<std::int64_t>::lane_index() * std::int64_t{3},
                LaneVec<float>::broadcast(1.0f));
        return c;
    };
    const auto a = run(owned), b = run(v);
    EXPECT_EQ(a.gmem_ld_req, b.gmem_ld_req);
    EXPECT_EQ(a.gmem_ld_sectors, b.gmem_ld_sectors);
    EXPECT_EQ(a.gmem_st_sectors, b.gmem_st_sectors);
    EXPECT_EQ(a.gmem_bytes_st, b.gmem_bytes_st);
    EXPECT_TRUE(std::ranges::equal(owned.host(), std::as_const(v).host()));
}

TEST(DeviceBufferView, OverlapDetectorWorksOnViews)
{
    testing::FLAGS_gtest_death_test_style = "threadsafe";
    std::vector<int> backing(4, 0);
    auto v = simt::DeviceBuffer<int>::view(backing);
    v.debug_detect_overlapping_writes();
    simt::Engine eng({.record_history = false, .num_threads = 2});
    EXPECT_DEATH(
        eng.launch({"overlap", 8, 0}, {{2, 1, 1}, {kWarpSize, 1, 1}},
                   [&](simt::WarpCtx&) -> simt::KernelTask {
                       v.store(LaneVec<std::int64_t>::broadcast(0),
                               LaneVec<int>::broadcast(7), 0x1u);
                       co_return;
                   }),
        "overlapping global-memory writes");
    // A copy of the view shares the detector; disjoint blocks are clean.
    auto copy = v;
    eng.launch({"disjoint", 8, 0}, {{4, 1, 1}, {kWarpSize, 1, 1}},
               [&](simt::WarpCtx& w) -> simt::KernelTask {
                   copy.store(LaneVec<std::int64_t>::broadcast(
                                  w.block_idx().x),
                              LaneVec<int>::broadcast(1), 0x1u);
                   co_return;
               });
    EXPECT_EQ(backing, (std::vector<int>{1, 1, 1, 1}));
}

// ----------------------------------------------------------------- Engine --

namespace {

/// Two-phase producer/consumer across warps: each warp writes its id into
/// smem, syncs, then reads its neighbour's value.  Verifies barrier
/// scheduling and per-block smem isolation.
simt::KernelTask neighbour_kernel(simt::WarpCtx& w,
                                  simt::DeviceBuffer<int>& out)
{
    auto sm = w.smem_alloc<int>("ids", static_cast<std::int64_t>(
                                           w.warps_per_block()));
    const auto widx =
        LaneVec<std::int64_t>::broadcast(w.warp_id());
    sm.store(widx, LaneVec<int>::broadcast(w.warp_id()), 0x1u);

    co_await w.sync();

    const int next = (w.warp_id() + 1) % w.warps_per_block();
    const auto got = sm.load(LaneVec<std::int64_t>::broadcast(next), 0x1u);
    const auto out_idx = LaneVec<std::int64_t>::broadcast(
        w.block_idx().x * w.warps_per_block() + w.warp_id());
    out.store(out_idx, got, 0x1u);
    co_return;
}

} // namespace

TEST(Engine, BarrierExchangesDataBetweenWarps)
{
    simt::Engine eng;
    simt::DeviceBuffer<int> out(8 * 4, -1);
    const simt::LaunchConfig cfg{{4, 1, 1}, {8 * kWarpSize, 1, 1}};
    auto stats = eng.launch({"neighbour", 8, 0}, cfg, [&](simt::WarpCtx& w) {
        return neighbour_kernel(w, out);
    });
    for (std::int64_t b = 0; b < 4; ++b)
        for (int wid = 0; wid < 8; ++wid)
            EXPECT_EQ(out.host()[static_cast<std::size_t>(b * 8 + wid)],
                      (wid + 1) % 8)
                << "block " << b << " warp " << wid;
    EXPECT_EQ(stats.counters.blocks, 4u);
    EXPECT_EQ(stats.counters.warps, 32u);
    EXPECT_EQ(stats.counters.barriers, 4u); // one release per block
    EXPECT_EQ(stats.smem_used_bytes, 8 * 4);
}

TEST(Engine, ThreadCoordinatesFollowCudaLinearization)
{
    simt::Engine eng;
    simt::DeviceBuffer<std::int64_t> xs(64), ys(64);
    const simt::LaunchConfig cfg{{1, 1, 1}, {8, 8, 1}}; // 64 threads, 2 warps
    eng.launch({"coords", 8, 0}, cfg, [&](simt::WarpCtx& w) -> simt::KernelTask {
        const auto linear =
            w.lane() + std::int64_t{w.warp_id()} * kWarpSize;
        xs.store(linear, w.thread_x());
        ys.store(linear, w.thread_y());
        co_return;
    });
    for (int t = 0; t < 64; ++t) {
        EXPECT_EQ(xs.host()[static_cast<std::size_t>(t)], t % 8);
        EXPECT_EQ(ys.host()[static_cast<std::size_t>(t)], t / 8);
    }
}

TEST(Engine, KernelExceptionsPropagate)
{
    simt::Engine eng;
    const simt::LaunchConfig cfg{{1, 1, 1}, {kWarpSize, 1, 1}};
    EXPECT_THROW(
        eng.launch({"thrower", 8, 0}, cfg,
                   [&](simt::WarpCtx&) -> simt::KernelTask {
                       throw std::runtime_error("bad kernel");
                       co_return; // unreachable; makes this a coroutine
                   }),
        std::runtime_error);
}

TEST(Engine, HistoryRecordsLaunches)
{
    simt::Engine eng;
    const simt::LaunchConfig cfg{{2, 3, 1}, {64, 1, 1}};
    eng.launch({"k1", 10, 128}, cfg,
               [&](simt::WarpCtx&) -> simt::KernelTask { co_return; });
    ASSERT_EQ(eng.history().size(), 1u);
    EXPECT_EQ(eng.history()[0].info.name, "k1");
    EXPECT_EQ(eng.history()[0].config.total_blocks(), 6);
    EXPECT_EQ(eng.history()[0].config.warps_per_block(), 2);
}
