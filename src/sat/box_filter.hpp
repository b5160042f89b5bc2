// Device-side box filter from a SAT: every thread produces one output pixel
// from four table lookups (paper Fig. 1), entirely on the simulated GPU.
// Complements the host-side loop in examples/box_filter.cpp and serves as a
// realistic *consumer* workload for the SAT tables (gather-heavy reads).
// It is the query layer's classic gather consumer with a BoxFilterSpec, so
// it shares window_sum4's wrapping corner formula: an integer table whose
// prefixes wrapped mod 2^N still yields exact window means.
#pragma once

#include "sat/query.hpp"

namespace satgpu::sat {

/// Blur on the simulated GPU: table is the inclusive SAT of the image,
/// read in place.
///
/// `radius <= 0` is a defined no-op: the window degenerates to the pixel
/// itself (area 1), so the output is a copy of the image the table
/// integrates.  A negative radius used to produce a reversed window whose
/// signed area could reach zero -- a divide-by-zero feeding NaNs downstream.
template <typename Tsat>
[[nodiscard]] Matrix<f32> box_filter_device(simt::Engine& eng,
                                            const Matrix<Tsat>& table,
                                            std::int64_t radius,
                                            simt::LaunchStats* stats = nullptr)
{
    const std::int64_t h = table.height(), w = table.width();
    const auto dev_table =
        simt::DeviceBuffer<Tsat>::read_only_view(table.flat());
    Matrix<f32> res(h, w);
    auto out = simt::DeviceBuffer<f32>::view(res.flat());
    // Launch shape comes from launch_params.hpp like every other kernel
    // touching Tsat-sized accumulators (1024 threads for 4-byte tables, 512
    // for 8-byte).
    const auto s = detail::launch_query_gather<BoxFilterSpec, Tsat, Tsat>(
        eng, dev_table, nullptr, h, w, /*out_row0=*/0,
        BoxFilterSpec{radius}, out, /*native=*/false);
    if (stats)
        *stats = s;
    return res;
}

} // namespace satgpu::sat
