// Native-backend battery (docs/backends.md): the warp primitives' edge
// cases under the UNINSTRUMENTED lowering (no PerfCounters / HazardChecker
// in TLS -- the exact state the native backend's worker threads run in),
// bit-identity between that lowering and the instrumented one, the
// Runtime's certification gate (including refusal of a deliberately broken
// fixture), and the Service's per-backend plan-cache separation.
//
// The primitive tests matter because the fast paths are separate code: a
// shuffle, scan or predicated add that diverges from the instrumented form
// by one bit would silently break the certification contract everywhere.
#include "core/random_fill.hpp"
#include "sat/broken_kernels.hpp"
#include "sat/runtime.hpp"
#include "sat/service.hpp"
#include "scan/warp_scan.hpp"
#include "simt/shuffle.hpp"
#include "simt/vote.hpp"

#include <gtest/gtest.h>

#include <cstdint>

namespace sat = satgpu::sat;
namespace scan = satgpu::scan;
namespace simt = satgpu::simt;
using satgpu::Dtype;
using satgpu::DtypePair;
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

LaneVec<float> random_f32_vec(std::uint64_t seed)
{
    // Awkward fractions so any reassociation of the float sums shows up.
    LaneVec<float> v;
    for (int l = 0; l < kWarpSize; ++l)
        v.set(l, static_cast<float>((seed * 31 + static_cast<std::uint64_t>(l) * 2654435761u) % 1000) /
                     7.0f);
    return v;
}

/// Runs `f` with PerfCounters AND a HazardChecker installed -- the fully
/// instrumented slow path -- and returns its result.
template <typename F>
auto instrumented(F&& f)
{
    simt::PerfCounters c;
    simt::CounterScope cs(c);
    simt::HazardChecker hc;
    simt::HazardCheckerScope hs(&hc);
    return f();
}

template <typename T>
void expect_lanes_eq(const LaneVec<T>& a, const LaneVec<T>& b,
                     const char* what)
{
    for (int l = 0; l < kWarpSize; ++l)
        EXPECT_EQ(a.get(l), b.get(l)) << what << " lane " << l;
}

} // namespace

// --------------------------------------------- uninstrumented primitives --

// This binary's test threads carry no TLS instrumentation, so every warp
// primitive below exercises its native-backend fast path.  Assert that
// premise first: if a future harness installs ambient counters, these
// tests would silently test the wrong lowering.
TEST(NativeLowering, TestThreadIsUninstrumented)
{
    EXPECT_EQ(simt::current_counters(), nullptr);
    EXPECT_EQ(simt::current_hazard_checker(), nullptr);
}

TEST(NativeLowering, ShuffleSegmentEdgesAtAllWidths)
{
    const auto v = iota_vec();
    for (const int width : {4, 8, 16, 32}) {
        const auto up = simt::shfl_up(v, 2, width);
        const auto down = simt::shfl_down(v, 2, width);
        const auto xo = simt::shfl_xor(v, width / 2, width);
        const auto bc = simt::shfl(v, width - 1, width);
        const auto wrapped = simt::shfl(v, width + 1, width); // srcLane mod
        for (int l = 0; l < kWarpSize; ++l) {
            EXPECT_EQ(up.get(l), l % width < 2 ? l : l - 2)
                << "up width " << width << " lane " << l;
            EXPECT_EQ(down.get(l), l % width >= width - 2 ? l : l + 2)
                << "down width " << width << " lane " << l;
            EXPECT_EQ(xo.get(l), l ^ (width / 2))
                << "xor width " << width << " lane " << l;
            EXPECT_EQ(bc.get(l), (l / width) * width + width - 1)
                << "shfl width " << width << " lane " << l;
            EXPECT_EQ(wrapped.get(l), (l / width) * width + 1)
                << "shfl-wrap width " << width << " lane " << l;
        }
    }
}

TEST(NativeLowering, ShuffleDeltaBeyondSegmentKeepsOwnValue)
{
    const auto v = iota_vec();
    for (const int width : {4, 8, 16, 32}) {
        const auto up = simt::shfl_up(v, width, width);
        const auto down = simt::shfl_down(v, width, width);
        for (int l = 0; l < kWarpSize; ++l) {
            EXPECT_EQ(up.get(l), l) << "width " << width;
            EXPECT_EQ(down.get(l), l) << "width " << width;
        }
    }
}

// An inactive-source read is deterministic in both lowerings (all 32
// register lanes stay live); the mask only drives hazard REPORTING, which
// is structurally absent here.  The returned values must not depend on it.
TEST(NativeLowering, ShuffleInactiveLaneMasksDoNotPerturbValues)
{
    const auto v = iota_vec(100);
    for (const LaneMask active :
         {LaneMask{0x0000ffffu}, LaneMask{0xaaaaaaaau}, LaneMask{0x1u}}) {
        expect_lanes_eq(simt::shfl_up(v, 1, kWarpSize, active),
                        simt::shfl_up(v, 1), "up/masked");
        expect_lanes_eq(simt::shfl_down(v, 3, kWarpSize, active),
                        simt::shfl_down(v, 3), "down/masked");
        expect_lanes_eq(simt::shfl(v, 5, kWarpSize, active),
                        simt::shfl(v, 5), "bcast/masked");
        expect_lanes_eq(simt::shfl_xor(v, 7, kWarpSize, active),
                        simt::shfl_xor(v, 7), "xor/masked");
    }
}

TEST(NativeLowering, ShufflesMatchInstrumentedLoweringBitExactly)
{
    const auto vi = iota_vec(-16);
    const auto vf = random_f32_vec(9);
    for (const int width : {4, 8, 16, 32}) {
        for (const int d : {0, 1, 2, width - 1, width, width + 1}) {
            const auto fast = simt::shfl_up(vi, d, width);
            const auto slow = instrumented(
                [&] { return simt::shfl_up(vi, d, width); });
            expect_lanes_eq(fast, slow, "up");

            const auto fast_d = simt::shfl_down(vf, d, width);
            const auto slow_d = instrumented(
                [&] { return simt::shfl_down(vf, d, width); });
            expect_lanes_eq(fast_d, slow_d, "down");

            const auto fast_b = simt::shfl(vf, d, width);
            const auto slow_b =
                instrumented([&] { return simt::shfl(vf, d, width); });
            expect_lanes_eq(fast_b, slow_b, "bcast");

            const auto fast_x = simt::shfl_xor(vi, d, width);
            const auto slow_x = instrumented(
                [&] { return simt::shfl_xor(vi, d, width); });
            expect_lanes_eq(fast_x, slow_x, "xor");
        }
    }
}

TEST(NativeLowering, VoteOpsIgnoreInactivePredicateBits)
{
    constexpr LaneMask active = 0x0000ffffu;
    constexpr LaneMask pred = 0xffff0f0fu; // bits outside `active` on purpose
    EXPECT_EQ(simt::ballot(pred, active), pred & active);
    EXPECT_TRUE(simt::any(pred, active));
    EXPECT_FALSE(simt::all(pred, active));
    EXPECT_TRUE(simt::all(0xffffffffu, active));
    EXPECT_FALSE(simt::any(0xffff0000u, active));
    EXPECT_EQ(simt::ballot(0u, active), 0u);
}

TEST(NativeLowering, VaddWhereMaskEdgeCases)
{
    const auto a = random_f32_vec(3);
    const auto b = random_f32_vec(4);
    for (const LaneMask m :
         {LaneMask{0u}, simt::kFullMask, LaneMask{0x55555555u},
          LaneMask{0x80000000u}, LaneMask{0x1u}}) {
        const auto fast = simt::vadd_where(m, a, b);
        const auto slow =
            instrumented([&] { return simt::vadd_where(m, a, b); });
        for (int l = 0; l < kWarpSize; ++l) {
            const float want = simt::lane_active(m, l)
                                   ? a.get(l) + b.get(l)
                                   : a.get(l);
            EXPECT_EQ(fast.get(l), want) << "mask " << m << " lane " << l;
            EXPECT_EQ(fast.get(l), slow.get(l))
                << "mask " << m << " lane " << l;
        }
    }
}

// The 31/32/33 segment edges: a warp covering elements [first, first+32)
// of a run whose length is one less than, exactly, and one more than the
// warp width.  lanes_in_range is the single source of truth every kernel
// mask delegates to.
TEST(NativeLowering, SegmentEdgeMasks31_32_33)
{
    EXPECT_EQ(simt::lanes_in_range(0, 31), 0x7fffffffu);
    EXPECT_EQ(simt::lanes_in_range(0, 32), simt::kFullMask);
    EXPECT_EQ(simt::lanes_in_range(0, 33), simt::kFullMask);
    EXPECT_EQ(simt::lanes_in_range(32, 33), 0x1u);
    EXPECT_EQ(simt::lanes_in_range(32, 31), 0u);
    EXPECT_EQ(simt::lanes_in_range(1, 33), simt::kFullMask);
}

TEST(NativeLowering, ContiguousRowIoHonorsSegmentEdgeMasks)
{
    for (const std::int64_t limit : {31, 32, 33}) {
        simt::DeviceBuffer<int> buf(64, /*fill=*/-1);
        const LaneMask m = simt::lanes_in_range(0, limit);

        simt::DeviceBuffer<int> src(64);
        for (std::int64_t i = 0; i < 64; ++i)
            src.host()[static_cast<std::size_t>(i)] =
                static_cast<int>(1000 + i);

        // Masked load: out-of-range lanes read zero.
        const auto r = src.load_row(0, m);
        for (int l = 0; l < kWarpSize; ++l)
            EXPECT_EQ(r.get(l), l < limit ? 1000 + l : 0)
                << "limit " << limit << " lane " << l;

        // Masked store: out-of-range elements stay untouched.
        buf.store_row(0, r, m);
        for (int l = 0; l < kWarpSize; ++l)
            EXPECT_EQ(buf.host()[static_cast<std::size_t>(l)],
                      l < limit ? 1000 + l : -1)
                << "limit " << limit << " lane " << l;

        // Contiguous row ops match the general gather/scatter lowering.
        const auto gather = src.load(
            LaneVec<std::int64_t>::lane_index() + std::int64_t{8}, m);
        expect_lanes_eq(src.load_row(8, m), gather, "row-vs-gather");
    }
}

// ----------------------------------------------------------- warp scans --

TEST(NativeLowering, AllWarpScansMatchInstrumentedBitExactly)
{
    using scan::WarpScanKind;
    for (const WarpScanKind kind :
         {WarpScanKind::kKoggeStone, WarpScanKind::kLadnerFischer,
          WarpScanKind::kBrentKung, WarpScanKind::kHanCarlson}) {
        const auto vf = random_f32_vec(17);
        const auto fast = scan::warp_inclusive_scan(kind, vf);
        const auto slow = instrumented(
            [&] { return scan::warp_inclusive_scan(kind, vf); });
        expect_lanes_eq(fast, slow, scan::to_string(kind).data());

        // And the scan is actually a scan.
        const auto vi = iota_vec(1);
        const auto s = scan::warp_inclusive_scan(kind, vi);
        int acc = 0;
        for (int l = 0; l < kWarpSize; ++l) {
            acc += l + 1;
            EXPECT_EQ(s.get(l), acc)
                << scan::to_string(kind) << " lane " << l;
        }
    }
}

// ------------------------------------------------- runtime certification --

namespace {

constexpr sat::Algorithm kNativeAlgos[] = {sat::Algorithm::kBrltScanRow,
                                           sat::Algorithm::kScanRowBrlt,
                                           sat::Algorithm::kScanRowColumn};

} // namespace

TEST(NativeBackend, BitExactWithSimulatorOnRaggedShapes)
{
    sat::Runtime rt({.record_history = false});
    const struct {
        std::int64_t h, w;
    } shapes[] = {{33, 17}, {64, 31}, {130, 97}};
    const DtypePair pairs[] = {{Dtype::u8_, Dtype::u32_},
                               {Dtype::f32_, Dtype::f32_}};
    for (const auto& pair : pairs)
        for (const auto algo : kNativeAlgos)
            for (const auto& s : shapes) {
                const auto image =
                    sat::AnyMatrix::random(pair.in, s.h, s.w, /*seed=*/7);
                const auto sim = rt.plan({.height = s.h,
                                          .width = s.w,
                                          .dtypes = pair,
                                          .algorithm = algo});
                const auto nat = rt.plan({.height = s.h,
                                          .width = s.w,
                                          .dtypes = pair,
                                          .algorithm = algo,
                                          .backend = sat::Backend::kNative});
                ASSERT_EQ(nat.backend(), sat::Backend::kNative)
                    << sat::to_string(algo);
                EXPECT_TRUE(nat.certified());
                EXPECT_EQ(sim.backend(), sat::Backend::kSim);
                EXPECT_FALSE(sim.certified()); // never probed for kSim
                const auto t_sim = sim.execute(image).table;
                const auto t_nat = nat.execute(image).table;
                EXPECT_TRUE(t_sim == t_nat)
                    << sat::to_string(algo) << " " << s.h << "x" << s.w;
            }
}

TEST(NativeBackend, InstrumentedRequestsForceSimulator)
{
    sat::Runtime rt({.record_history = false});
    const sat::PlanRequest base{.height = 64,
                                .width = 64,
                                .dtypes = {Dtype::f32_, Dtype::f32_},
                                .algorithm = sat::Algorithm::kScanRowColumn,
                                .backend = sat::Backend::kNative};

    auto checked = base;
    checked.check = true;
    EXPECT_EQ(rt.plan(checked).backend(), sat::Backend::kSim);

    auto profiled = base;
    profiled.profile = true;
    EXPECT_EQ(rt.plan(profiled).backend(), sat::Backend::kSim);

    EXPECT_EQ(rt.plan(base).backend(), sat::Backend::kNative);
}

TEST(NativeBackend, AlgorithmWithoutNativeLoweringFallsBack)
{
    sat::Runtime rt({.record_history = false});
    const auto plan = rt.plan({.height = 64,
                               .width = 64,
                               .dtypes = {Dtype::u8_, Dtype::u32_},
                               .algorithm =
                                   sat::Algorithm::kScanTransposeScan,
                               .backend = sat::Backend::kNative});
    EXPECT_EQ(plan.backend(), sat::Backend::kSim);
    EXPECT_FALSE(plan.certified());
}

TEST(NativeBackend, AutoScoresCarryBackendAndCertification)
{
    sat::Runtime rt({.record_history = false});
    const auto plan = rt.plan({.height = 256,
                               .width = 256,
                               .dtypes = {Dtype::f32_, Dtype::f32_},
                               .algorithm = sat::Algorithm::kAuto,
                               .backend = sat::Backend::kAuto});
    ASSERT_FALSE(plan.scores().empty());
    // The winner is the top score, and the plan runs under its backend.
    EXPECT_EQ(plan.algorithm(), plan.scores().front().algo);
    EXPECT_EQ(plan.backend(), plan.scores().front().backend);
    for (const auto& s : plan.scores()) {
        if (s.backend == sat::Backend::kNative) {
            EXPECT_TRUE(s.certified) << sat::to_string(s.algo);
        }
        EXPECT_GT(s.predicted_us, 0.0) << sat::to_string(s.algo);
    }
}

// The acceptance-bar fixture: a certification probe wired to a kernel with
// a REAL missing barrier must refuse the native backend, and the refusal
// must not poison the cache once the default probe is restored.
TEST(NativeBackend, BrokenFixtureIsRefusedNativeExecution)
{
    sat::Runtime rt({.record_history = false});
    const sat::PlanRequest req{.height = 64,
                               .width = 64,
                               .dtypes = {Dtype::u8_, Dtype::u32_},
                               .algorithm = sat::Algorithm::kBrltScanRow,
                               .backend = sat::Backend::kNative};

    int probe_calls = 0;
    rt.set_certification_probe([&](sat::Algorithm, const sat::PlanRequest&,
                                   sat::CertComponent) {
        ++probe_calls;
        simt::Engine::Options opt;
        opt.record_history = false;
        opt.check = true;
        simt::Engine eng(opt);
        const auto run = sat::broken::run_brlt_missing_barrier(eng);
        // The fixture's whole point: golden output stays correct, the
        // hazard checker still convicts -- so certification must look at
        // the hazards, not the table.
        EXPECT_TRUE(run.output_correct);
        EXPECT_TRUE(run.stats.hazards != nullptr &&
                    !run.stats.hazards->clean());
        return run.stats.hazards != nullptr && run.stats.hazards->clean();
    });

    const auto refused = rt.plan(req);
    EXPECT_EQ(refused.backend(), sat::Backend::kSim);
    EXPECT_FALSE(refused.certified());
    EXPECT_EQ(probe_calls, 1);

    // Verdicts are cached per configuration: a second plan re-uses it.
    (void)rt.plan(req);
    EXPECT_EQ(probe_calls, 1);

    // Restoring the default probe clears the cache; the shipped kernel
    // certifies clean again.
    rt.set_certification_probe(nullptr);
    const auto ok = rt.plan(req);
    EXPECT_EQ(ok.backend(), sat::Backend::kNative);
    EXPECT_TRUE(ok.certified());
}

TEST(NativeBackend, UnsyncedCarryFixtureAlsoConvicts)
{
    // Belt and braces for the other broken fixtures: both produce hazard
    // findings a certification probe would refuse on.
    simt::Engine::Options opt;
    opt.record_history = false;
    opt.check = true;
    simt::Engine eng(opt);
    const auto carry = sat::broken::run_unsynced_smem_tile(eng);
    EXPECT_TRUE(carry.output_correct);
    ASSERT_NE(carry.stats.hazards, nullptr);
    EXPECT_FALSE(carry.stats.hazards->clean());

    const auto tiled = sat::broken::run_tiled_carry_prefix(eng);
    EXPECT_TRUE(tiled.output_correct);
    ASSERT_NE(tiled.stats.hazards, nullptr);
    EXPECT_FALSE(tiled.stats.hazards->clean());
}

// One worker runs every block through one reused context: each block must
// still find an all-zero arena with no allocations, whatever layout and
// element type the block before it used and dirtied.
TEST(NativeBackend, ReusedBlockContextStartsEveryBlockZeroed)
{
    constexpr std::int64_t kBlocks = 48;
    const simt::LaunchConfig cfg{{kBlocks, 1, 1}, {2 * kWarpSize, 1, 1}};
    const simt::KernelInfo info{"dirty_arena", 32, 0};
    std::int64_t dirty_entries = 0; // one worker thread: no race
    std::int64_t want_peak = 0;
    const auto lane = LaneVec<std::int64_t>::lane_index();
    const auto stats = simt::native_launch(
        {.record_history = false, .num_threads = 1}, info, cfg,
        [&](simt::NativeBlockCtx& blk) {
            const std::int64_t b = blk.block_idx().x;
            // Three layouts in rotation, each larger than the last, so
            // later allocations cover bytes earlier blocks wrote.
            const std::int64_t n = 64 * (1 + b % 3);
            auto& w = blk.warp(static_cast<int>(b % 2));
            auto check_and_dirty = [&]<typename T>(const char* name,
                                                   std::int64_t count) {
                auto view = w.template smem_alloc<T>(name, count);
                for (std::int64_t base = 0; base < count; base += kWarpSize) {
                    const auto idx = lane + base;
                    const LaneMask m = simt::lanes_in_range(base, count);
                    const auto v = view.load(idx, m);
                    for (int l = 0; l < kWarpSize; ++l)
                        if (simt::lane_active(m, l) && v.get(l) != T{})
                            ++dirty_entries;
                    view.store(idx, LaneVec<T>::broadcast(static_cast<T>(b + 1)),
                               m);
                }
            };
            if (b % 2 == 0) {
                check_and_dirty.template operator()<std::uint32_t>("words", n);
                check_and_dirty.template operator()<double>("wide", n / 2);
            } else {
                check_and_dirty.template operator()<std::uint8_t>("bytes", n);
                check_and_dirty.template operator()<double>("wide", n);
            }
            want_peak = std::max(want_peak, blk.smem_bytes_used());
        });
    EXPECT_EQ(dirty_entries, 0);
    EXPECT_EQ(stats.smem_used_bytes, want_peak);
    EXPECT_EQ(stats.counters.blocks, static_cast<std::uint64_t>(kBlocks));
}

// ------------------------------------------------------------- service ----

TEST(ServiceBackend, PlanCacheSeparatesBackendsAndReportsThem)
{
    sat::Service::Options opt;
    opt.workers = 2;
    sat::Service svc(opt);

    const auto image =
        sat::AnyMatrix::random(Dtype::f32_, 64, 48, /*seed=*/11);

    sat::Service::Request sim_req;
    sim_req.image = image;
    sim_req.out = Dtype::f32_;
    sim_req.algorithm = sat::Algorithm::kScanRowColumn;

    auto nat_req = sim_req;
    nat_req.backend = sat::Backend::kNative;

    auto f_sim = svc.submit(sim_req);
    auto f_nat = svc.submit(nat_req);
    const auto t_sim = f_sim.get();
    const auto t_nat = f_nat.get();
    EXPECT_TRUE(t_sim == t_nat);

    // Distinct plan keys: same shape/dtype/algorithm, different backend.
    EXPECT_EQ(svc.plan_cache_size(), 2u);

    const auto plans = svc.plan_info();
    ASSERT_EQ(plans.size(), 2u);
    bool saw_native = false, saw_sim = false;
    for (const auto& p : plans) {
        ASSERT_TRUE(p.resolved);
        EXPECT_EQ(p.algorithm, sat::Algorithm::kScanRowColumn);
        if (p.key.backend == sat::Backend::kNative) {
            saw_native = true;
            EXPECT_EQ(p.backend, sat::Backend::kNative);
            EXPECT_TRUE(p.certified);
            EXPECT_NE(p.label.find("backend=native"), std::string::npos)
                << p.label;
        } else {
            saw_sim = true;
            EXPECT_EQ(p.backend, sat::Backend::kSim);
            EXPECT_EQ(p.label.find("backend="), std::string::npos)
                << p.label;
        }
    }
    EXPECT_TRUE(saw_native);
    EXPECT_TRUE(saw_sim);
}
