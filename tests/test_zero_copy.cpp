// Zero-copy execution: the kernels read caller images in place through
// read-only views and write straight into the returned matrices (SAT
// tables, query outputs and histogram mask planes allocated
// uninitialized; tiled tables updated in place by the carry combine).
// These tests pin the three properties that make this safe: every result
// element is written (no stale storage can leak into a result), caller
// inputs are never modified, and aliased inputs (one image passed several
// times, or one image shared by concurrent runtimes) behave exactly like
// distinct copies.
#include "core/random_fill.hpp"
#include "sat/integral_histogram.hpp"
#include "sat/query.hpp"
#include "sat/runtime.hpp"
#include "sat/sat.hpp"
#include "sat/tiled.hpp"

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
bool same_bytes(std::span<const T> a,
                std::type_identity_t<std::span<const T>> b)
{
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size_bytes()) == 0;
}

/// An owned device buffer whose every byte is 0xA5: storage a launch must
/// fully overwrite before a result can match its oracle.
template <typename T>
simt::DeviceBuffer<T> prefilled(std::int64_t count)
{
    simt::DeviceBuffer<T> b(count);
    std::memset(b.host().data(), 0xA5, b.host().size_bytes());
    return b;
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
            outs.push_back(prefilled<Tout>(s.h * s.w));
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

// Ragged query shapes; 33 x 1100 under 32 x 1024 tiles gives extended
// tiles wider than one block spans, so the fused fallback (the plan
// algorithm's passes straight into the staged local-SAT lease) runs too.
struct QueryCase {
    Shape shape;
    sat::TileGeometry tile;
};
constexpr QueryCase kQueryCases[] = {{{1, 1}, {32, 32}},
                                     {{31, 33}, {32, 32}},
                                     {{97, 64}, {32, 32}},
                                     {{33, 1100}, {32, 1024}}};

/// Both query pipelines into 0xA5-prefilled outputs, on a random and an
/// all-zero image, against the serial query oracle.
template <typename Spec>
void expect_query_overwrites_prefilled_output(const Spec& spec,
                                              sat::Backend backend)
{
    using Tout = sat::detail::query_out_t<satgpu::u32, Spec>;
    simt::Engine eng({.record_history = false, .num_threads = 2});
    simt::BufferPool pool;
    sat::Options opt;
    opt.backend = backend;
    opt.pool = &pool;
    for (const QueryCase& c : kQueryCases)
        for (const bool zeros : {false, true}) {
            Matrix<satgpu::u8> img(c.shape.h, c.shape.w);
            if (!zeros)
                satgpu::fill_random(img, /*seed=*/7);
            Matrix<Tout> want;
            if constexpr (std::is_same_v<Spec, sat::RegionHistogramSpec>)
                want = sat::query_serial_hist(img, spec);
            else
                want = sat::query_serial<satgpu::u32>(img, spec);
            const std::int64_t n =
                sat::detail::query_out_rows(spec, c.shape.h) * c.shape.w;
            auto fused = prefilled<Tout>(n);
            (void)sat::launch_query_fused<satgpu::u32>(eng, img, spec,
                                                       c.tile, fused, opt);
            auto mat = prefilled<Tout>(n);
            (void)sat::launch_query_materialized<satgpu::u32>(eng, img, spec,
                                                              mat, opt);
            const std::string where = sat::query_label(spec) + " " +
                                      std::string(sat::to_string(backend)) +
                                      " " + std::to_string(c.shape.h) + "x" +
                                      std::to_string(c.shape.w) +
                                      (zeros ? " zeros" : " random");
            EXPECT_TRUE(same_bytes(std::as_const(fused).host(), want.flat()))
                << "fused " << where;
            EXPECT_TRUE(same_bytes(std::as_const(mat).host(), want.flat()))
                << "materialized " << where;
        }
}

TEST(ZeroCopyCoverage, QueryOutputsOverwritePrefilledStorage)
{
    for (const sat::Backend b : {sat::Backend::kSim, sat::Backend::kNative}) {
        expect_query_overwrites_prefilled_output(sat::BoxFilterSpec{3}, b);
        expect_query_overwrites_prefilled_output(
            sat::AdaptiveThresholdSpec{4, 0.9}, b);
        expect_query_overwrites_prefilled_output(sat::WindowSumSpec{5, 7}, b);
        expect_query_overwrites_prefilled_output(
            sat::RegionHistogramSpec{4, 2}, b);
    }
}

TEST(ZeroCopyCoverage, HistogramMaskPlanesOverwritePrefilledStorage)
{
    // Both bin-mask launchers (integral_histogram's fused grid.z launch and
    // the query histogram's dual-lowered one) share one body; every plane
    // element must be written with min(v / bin_width, bins - 1) == bin.
    simt::Engine eng({.record_history = false, .num_threads = 2});
    for (const std::int64_t n : {std::int64_t{1}, std::int64_t{31 * 33},
                                 std::int64_t{97 * 64 + 5}}) {
        Matrix<satgpu::u8> img(1, n);
        satgpu::fill_random(img, /*seed=*/9, satgpu::u8{0}, satgpu::u8{255});
        const auto in = simt::DeviceBuffer<satgpu::u8>::read_only_view(
            img.flat());
        for (const int bins : {3, 16, 48}) {
            const std::int64_t bw = 256 / bins;
            const auto want = [&](int bin) {
                Matrix<satgpu::u8> m(1, n);
                for (std::int64_t i = 0; i < n; ++i)
                    m(0, i) = std::min<std::int64_t>(img(0, i) / bw,
                                                     bins - 1) == bin;
                return m;
            };
            std::vector<simt::DeviceBuffer<satgpu::u8>> planes;
            std::vector<simt::DeviceBuffer<satgpu::u8>*> ptrs;
            planes.reserve(static_cast<std::size_t>(bins));
            for (int b = 0; b < bins; ++b) {
                planes.push_back(prefilled<satgpu::u8>(n));
                ptrs.push_back(&planes.back());
            }
            (void)sat::detail::launch_histogram_masks(eng, in, 0, bw, bins,
                                                      ptrs);
            for (int b = 0; b < bins; ++b)
                EXPECT_TRUE(
                    same_bytes(std::as_const(planes[static_cast<std::size_t>(
                                                 b)])
                                   .host(),
                               want(b).flat()))
                    << "integral n=" << n << " bins=" << bins << " bin " << b;

            for (const bool native : {false, true}) {
                auto mask = prefilled<satgpu::u8>(n);
                const sat::detail::BinMaskJob job{&in, &mask, n};
                const int bin = bins - 1; // the clamping top bin
                (void)sat::detail::launch_bin_mask(
                    eng, std::span<const sat::detail::BinMaskJob>(&job, 1),
                    bin, bw, bins, native);
                EXPECT_TRUE(same_bytes(std::as_const(mask).host(),
                                       want(bin).flat()))
                    << "query n=" << n << " bins=" << bins
                    << " native=" << native;
            }
        }
    }
}

TEST(ZeroCopyCoverage, TiledCarryUpdatesExactlyItsRectanglesInPlace)
{
    // The carry combine adds row carry + column carry + corner to each
    // tile's rectangle of the pitched global table and touches nothing
    // else.  Two ragged tiles share one launch; table widths are not
    // multiples of the 8-element sector.
    using T = satgpu::u32;
    simt::Engine eng({.record_history = false, .num_threads = 2});
    for (const std::int64_t w : {std::int64_t{45}, std::int64_t{70},
                                 std::int64_t{1027}}) {
        const std::int64_t h = 75;
        auto table = prefilled<T>(h * w);
        struct Rect {
            std::int64_t y0, x0, th, tw;
        };
        const Rect rects[] = {{0, 32, 32, w - 32}, {64, 0, h - 64, w}};
        std::vector<std::vector<T>> rc, cc;
        for (const Rect& r : rects) {
            rc.emplace_back(static_cast<std::size_t>(r.th));
            cc.emplace_back(static_cast<std::size_t>(r.tw));
            for (std::size_t i = 0; i < rc.back().size(); ++i)
                rc.back()[i] = static_cast<T>(1000 + i);
            for (std::size_t i = 0; i < cc.back().size(); ++i)
                cc.back()[i] = static_cast<T>(7 * i);
        }
        std::vector<simt::DeviceBuffer<T>> carries;
        std::vector<sat::TileCarryArgs<T>> args;
        carries.reserve(4);
        for (std::size_t t = 0; t < 2; ++t) {
            const Rect& r = rects[t];
            carries.push_back(simt::DeviceBuffer<T>::read_only_view(rc[t]));
            carries.push_back(simt::DeviceBuffer<T>::read_only_view(cc[t]));
            args.push_back({&table, &carries[2 * t], &carries[2 * t + 1],
                            static_cast<T>(5 + t), r.th, r.tw,
                            r.y0 * w + r.x0, w});
        }
        (void)sat::launch_tile_carry_combine<T>(eng, args);

        T fill;
        std::memset(&fill, 0xA5, sizeof fill);
        const auto host = std::as_const(table).host();
        for (std::int64_t y = 0; y < h; ++y)
            for (std::int64_t x = 0; x < w; ++x) {
                T want = fill;
                for (std::size_t t = 0; t < 2; ++t) {
                    const Rect& r = rects[t];
                    if (y >= r.y0 && y < r.y0 + r.th && x >= r.x0 &&
                        x < r.x0 + r.tw)
                        want = static_cast<T>(
                            fill + rc[t][static_cast<std::size_t>(y - r.y0)] +
                            cc[t][static_cast<std::size_t>(x - r.x0)] +
                            (5 + t));
                }
                ASSERT_EQ(host[static_cast<std::size_t>(y * w + x)], want)
                    << "w=" << w << " at " << y << "," << x;
            }
    }
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
