// Zero-copy SAT execution: the kernels read caller images in place through
// read-only views and write the last pass straight into the result tables
// (allocated uninitialized).  These tests pin the three properties that
// make this safe: every result element is written by the pass sequence (no
// stale storage can leak into a table), caller inputs are never modified,
// and aliased inputs (one image passed several times, or one image shared
// by concurrent runtimes) behave exactly like distinct copies.
#include "core/random_fill.hpp"
#include "sat/runtime.hpp"
#include "sat/sat.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <span>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace sat = satgpu::sat;
namespace simt = satgpu::simt;
using satgpu::Matrix;

namespace {

struct Shape {
    std::int64_t h, w;
};
constexpr Shape kShapes[] = {{1, 1}, {31, 33}, {97, 64}, {33, 1024}};

template <typename T>
bool same_bytes(std::span<const T> a, std::span<const T> b)
{
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size_bytes()) == 0;
}

bool same_bytes(const sat::AnyMatrix& a, const sat::AnyMatrix& b)
{
    return a.visit([&](const auto& m) {
        using T = typename std::decay_t<decltype(m)>::value_type;
        return same_bytes(m.flat(), b.as<T>().flat());
    });
}

/// Runs `opt.algorithm`'s pass sequence over a K = 2 wave into output
/// buffers pre-filled with the byte pattern 0xA5 and asserts every table
/// is bit-identical to the serial oracle.  The second image is all zeros,
/// so its table is all zeros too: a pass that skipped any element would
/// pass against zero-filled storage but not against this pattern.
template <typename Tout, typename Tin>
void expect_passes_overwrite_prefilled_outputs(sat::Algorithm algo,
                                               sat::Backend backend)
{
    simt::Engine eng({.record_history = false, .num_threads = 2});
    sat::Options opt;
    opt.algorithm = algo;
    opt.backend = backend;
    for (const Shape s : kShapes) {
        std::vector<Matrix<Tin>> images;
        std::vector<simt::DeviceBuffer<Tin>> ins;
        std::vector<simt::DeviceBuffer<Tout>> outs;
        for (const bool zeros : {false, true}) {
            Matrix<Tin> m(s.h, s.w);
            if (!zeros)
                satgpu::fill_random(m, /*seed=*/1);
            images.push_back(std::move(m));
            simt::DeviceBuffer<Tout> out(s.h * s.w);
            std::memset(out.host().data(), 0xA5, out.host().size_bytes());
            outs.push_back(std::move(out));
        }
        for (const auto& m : images)
            ins.push_back(simt::DeviceBuffer<Tin>::read_only_view(m.flat()));
        std::vector<const simt::DeviceBuffer<Tin>*> in_ptrs;
        std::vector<simt::DeviceBuffer<Tout>*> out_ptrs;
        for (std::size_t i = 0; i < images.size(); ++i) {
            in_ptrs.push_back(&ins[i]);
            out_ptrs.push_back(&outs[i]);
        }
        (void)sat::launch_sat_wave<Tout, Tin>(eng, in_ptrs, s.h, s.w,
                                              out_ptrs, opt);
        for (std::size_t i = 0; i < images.size(); ++i) {
            const Matrix<Tout> want = sat::sat_serial<Tout>(images[i]);
            EXPECT_TRUE(same_bytes(std::as_const(outs[i]).host(),
                                   want.flat()))
                << sat::to_string(algo) << " " << sat::to_string(backend)
                << " " << s.h << "x" << s.w << " image " << i;
        }
    }
}

template <typename Tout, typename Tin>
void sweep_all_algorithms()
{
    for (const sat::Algorithm a : sat::kAllAlgorithms) {
        expect_passes_overwrite_prefilled_outputs<Tout, Tin>(
            a, sat::Backend::kSim);
        if (sat::native_supported(a))
            expect_passes_overwrite_prefilled_outputs<Tout, Tin>(
                a, sat::Backend::kNative);
    }
}

std::vector<sat::Plan> plans_for(sat::Runtime& rt, satgpu::DtypePair dt,
                                 std::int64_t h, std::int64_t w)
{
    std::vector<sat::Plan> plans;
    for (const sat::Algorithm a : sat::kAllAlgorithms)
        for (const sat::Backend b : {sat::Backend::kSim, sat::Backend::kAuto})
            plans.push_back(rt.plan({.height = h,
                                     .width = w,
                                     .dtypes = dt,
                                     .algorithm = a,
                                     .backend = b}));
    return plans;
}

std::string label(const sat::Plan& p)
{
    return std::string(sat::to_string(p.algorithm())) + "/" +
           std::string(sat::to_string(p.backend()));
}

} // namespace

// --------------------------------------- uninitialized result coverage ----

TEST(ZeroCopyCoverage, PassesOverwritePrefilledOutputs8u32u)
{
    sweep_all_algorithms<satgpu::u32, satgpu::u8>();
}

TEST(ZeroCopyCoverage, PassesOverwritePrefilledOutputs32f32f)
{
    sweep_all_algorithms<satgpu::f32, satgpu::f32>();
}

TEST(ZeroCopyCoverage, PassesOverwritePrefilledOutputs64f64f)
{
    sweep_all_algorithms<satgpu::f64, satgpu::f64>();
}

// ----------------------------------------------------- input integrity ----

TEST(ZeroCopyInputs, ExecuteAndWaveLeaveInputBytesUnchanged)
{
    sat::Runtime rt;
    for (const satgpu::DtypePair dt :
         {satgpu::make_pair_of<satgpu::u8, satgpu::u32>(),
          satgpu::make_pair_of<satgpu::f64, satgpu::f64>()}) {
        const auto a = sat::AnyMatrix::random(dt.in, 45, 70, /*seed=*/11);
        const auto b = sat::AnyMatrix::random(dt.in, 45, 70, /*seed=*/12);
        const sat::AnyMatrix a0 = a, b0 = b;
        for (const sat::Plan& plan : plans_for(rt, dt, 45, 70)) {
            (void)plan.execute(a);
            const sat::AnyMatrix* const wave[] = {&a, &b};
            (void)plan.execute_wave(wave);
            EXPECT_TRUE(same_bytes(a, a0)) << label(plan);
            EXPECT_TRUE(same_bytes(b, b0)) << label(plan);
        }
    }
}

TEST(ZeroCopyInputs, WavePassingOneImageTwiceMatchesSingleExecutes)
{
    sat::Runtime rt;
    const auto dt = satgpu::make_pair_of<satgpu::u8, satgpu::u32>();
    const auto a = sat::AnyMatrix::random(dt.in, 40, 96, /*seed=*/21);
    const auto b = sat::AnyMatrix::random(dt.in, 40, 96, /*seed=*/22);
    for (const sat::Plan& plan : plans_for(rt, dt, 40, 96)) {
        const sat::AnyMatrix* const wave[] = {&a, &b, &a};
        const auto got = plan.execute_wave(wave);
        ASSERT_EQ(got.tables.size(), 3u) << label(plan);
        EXPECT_TRUE(got.tables[0] == plan.execute(a).table) << label(plan);
        EXPECT_TRUE(got.tables[1] == plan.execute(b).table) << label(plan);
        EXPECT_TRUE(got.tables[2] == plan.execute(a).table) << label(plan);
        EXPECT_TRUE(got.tables[0] == rt.reference(a, dt.out)) << label(plan);
    }
}

// -------------------------------------------------- shared const input ----

TEST(ZeroCopyInputs, TwoRuntimesShareOneConstInputConcurrently)
{
    // Both runtimes read the same caller storage through read-only views
    // at the same time (native and simulator, single images and waves);
    // reads of shared const data must be race-free and results exact.
    const auto dt = satgpu::make_pair_of<satgpu::u8, satgpu::u32>();
    const sat::AnyMatrix image =
        sat::AnyMatrix::random(dt.in, 64, 160, /*seed=*/31);
    const sat::AnyMatrix want = sat::Runtime().reference(image, dt.out);
    const auto worker = [&](sat::Backend backend, bool* ok) {
        sat::Runtime rt({.record_history = false, .num_threads = 2});
        const auto plan = rt.plan({.height = 64,
                                   .width = 160,
                                   .dtypes = dt,
                                   .algorithm = sat::Algorithm::kBrltScanRow,
                                   .backend = backend});
        bool good = true;
        for (int i = 0; i < 4; ++i) {
            good = good && plan.execute(image).table == want;
            const sat::AnyMatrix* const wave[] = {&image, &image};
            for (const auto& t : plan.execute_wave(wave).tables)
                good = good && t == want;
        }
        *ok = good;
    };
    bool ok_native = false, ok_sim = false;
    std::thread t1(worker, sat::Backend::kAuto, &ok_native);
    std::thread t2(worker, sat::Backend::kSim, &ok_sim);
    t1.join();
    t2.join();
    EXPECT_TRUE(ok_native);
    EXPECT_TRUE(ok_sim);
}
