// Future-work bench (paper Sec. VII): BRLT applied beyond the SAT.
//
//  * 2-D Haar DWT: the BRLT-fused kernel does the pair butterflies
//    intra-thread -- ZERO shuffles -- versus a shuffle-butterfly variant
//    that exchanges neighbours with shfl_xor and permutes lanes for the
//    [low|high] packing.
//  * 2-D recursive filter (Nehab et al. [9]): affine warp scans along rows
//    vs the intra-thread serial recurrence along columns, showing the same
//    serial-beats-parallel communication profile as the SAT kernels.
#include "bench_common.hpp"
#include "core/random_fill.hpp"
#include "transforms/haar_dwt.hpp"
#include "transforms/recursive_filter.hpp"

#include <iostream>

namespace satgpu::simt::detail {
// Local helper used by the shuffle-variant below.
inline void count_shfl_n(int n)
{
    if (PerfCounters* c = current_counters())
        c->warp_shfl += static_cast<std::uint64_t>(n);
}
} // namespace satgpu::simt::detail

namespace {

using namespace satgpu;

/// Shuffle-butterfly Haar row pass (no BRLT): per register row, exchange
/// neighbour lanes, combine, and pack via index shuffles.  Row-major
/// output; a separate pass covers columns in registers.  Used only for its
/// event profile.
template <typename T>
simt::KernelTask haar_rows_shfl_warp(simt::WarpCtx& w,
                                     const simt::DeviceBuffer<T>& in,
                                     std::int64_t height, std::int64_t width,
                                     simt::DeviceBuffer<T>& out)
{
    using simt::kWarpSize;
    using simt::LaneVec;
    const std::int64_t row =
        w.block_idx().y * w.warps_per_block() + w.warp_id();
    if (row >= height)
        co_return;
    const auto lane = LaneVec<std::int64_t>::lane_index();
    const simt::LaneMask low_half = 0x0000ffffu;

    for (std::int64_t c0 = 0; c0 < width; c0 += kWarpSize) {
        const auto m = sat::cols_in_range(c0, width);
        auto v = in.load(lane + (row * width + c0), m);
        // Butterfly with the xor-neighbour.
        const auto partner = simt::shfl_xor(v, 1);
        const auto sum = simt::vadd(v, partner);
        LaneVec<T> diff = LaneVec<T>::zip(
            v, partner, [](T a, T b) { return static_cast<T>(a - b); });
        simt::detail::count_adds(kWarpSize);
        // Even lanes hold sums, odd lanes hold (negated-order) diffs; pack
        // [low | high] with two index shuffles.
        LaneVec<T> packed{};
        for (int l = 0; l < kWarpSize / 2; ++l) {
            packed.set(l, sum.get(2 * l));
            packed.set(kWarpSize / 2 + l, diff.get(2 * l));
        }
        simt::detail::count_shfl_n(2); // the two permutations
        // Low halves go to c0/2, high halves to width/2 + c0/2.
        const auto lo_idx = lane + (row * width + c0 / 2);
        const auto hi_idx =
            lane - std::int64_t{kWarpSize / 2} +
            (row * width + width / 2 + c0 / 2);
        out.store(lo_idx, packed, m & low_half);
        out.store(hi_idx, packed, m & ~low_half);
    }
}

} // namespace

int main()
{
    const auto& gpu = model::tesla_p100();
    constexpr std::int64_t kN = 1024;

    Matrix<i32> img(kN, kN);
    fill_random(img, 9);

    std::cout << "Future work (Sec. VII): BRLT beyond the SAT, on "
              << gpu.name << ", " << kN / 1024 << "k x " << kN / 1024
              << "k\n\n-- 2-D Haar DWT --\n\n";

    simt::Engine e1;
    const auto brlt = transforms::haar_dwt_2d(e1, img);

    simt::Engine e2;
    const auto in = simt::DeviceBuffer<i32>::read_only_view(img.flat());
    simt::DeviceBuffer<i32> mid(kN * kN);
    const auto shfl_pass = e2.launch(
        {"haar_rows_shfl", 24, 0},
        {{1, satgpu::ceil_div(kN, 8), 1}, {8 * simt::kWarpSize, 1, 1}},
        [&](simt::WarpCtx& w) {
            return haar_rows_shfl_warp<i32>(w, in, kN, kN, mid);
        });

    TablePrinter t({"variant", "warp shuffles", "smem trans", "lane adds",
                    "est. time/pass (us)"});
    const auto& b0 = brlt.launches[0];
    t.add_row({"BRLT-fused row pass",
               TablePrinter::fmt_int(static_cast<std::int64_t>(
                   b0.counters.warp_shfl)),
               TablePrinter::fmt_int(static_cast<std::int64_t>(
                   b0.counters.smem_trans())),
               TablePrinter::fmt_int(static_cast<std::int64_t>(
                   b0.counters.lane_add)),
               TablePrinter::fmt(
                   model::estimate_kernel_time(gpu, b0).total_us, 1)});
    t.add_row({"shuffle-butterfly row pass",
               TablePrinter::fmt_int(static_cast<std::int64_t>(
                   shfl_pass.counters.warp_shfl)),
               TablePrinter::fmt_int(static_cast<std::int64_t>(
                   shfl_pass.counters.smem_trans())),
               TablePrinter::fmt_int(static_cast<std::int64_t>(
                   shfl_pass.counters.lane_add)),
               TablePrinter::fmt(
                   model::estimate_kernel_time(gpu, shfl_pass).total_us,
                   1)});
    t.print(std::cout);

    std::cout << "\n-- 2-D recursive filter (y = x + 0.8*y_prev) --\n\n";
    Matrix<f32> fimg(kN, kN);
    fill_random(fimg, 10);
    simt::Engine e3;
    const auto iir = transforms::recursive_filter_2d(e3, fimg, 0.8f);
    TablePrinter t2({"kernel", "warp shuffles", "lane adds", "lane muls",
                     "est. time (us)"});
    for (const auto& l : iir.launches)
        t2.add_row({l.info.name,
                    TablePrinter::fmt_int(static_cast<std::int64_t>(
                        l.counters.warp_shfl)),
                    TablePrinter::fmt_int(static_cast<std::int64_t>(
                        l.counters.lane_add)),
                    TablePrinter::fmt_int(static_cast<std::int64_t>(
                        l.counters.lane_mul)),
                    TablePrinter::fmt(
                        model::estimate_kernel_time(gpu, l).total_us, 1)});
    t2.print(std::cout);
    std::cout << "\nThe column kernel's intra-thread serial recurrence uses "
                 "zero shuffles --\nthe same communication profile that "
                 "makes BRLT-ScanRow the fastest SAT.\n";
    return 0;
}
