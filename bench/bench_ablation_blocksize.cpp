// Ablation: BRLT-ScanRow block size.  The paper picks BlockSize = 1024 (32
// warps) for 4-byte types "to achieve the highest occupancy" (Sec. IV-2);
// this bench sweeps 4..32 warps per block and reports the occupancy,
// barrier count and estimated time trade-off on P100.
#include "bench_common.hpp"
#include "core/random_fill.hpp"
#include "sat/brlt_scanrow.hpp"

#include <iostream>

int main()
{
    using namespace satgpu;
    const auto& gpu = model::tesla_p100();
    constexpr std::int64_t kCal = 1024; // calibration size
    constexpr std::int64_t kN = 4096;   // reported size
    const double factor =
        static_cast<double>(kN) * kN / (static_cast<double>(kCal) * kCal);

    std::cout << "Ablation: BRLT-ScanRow warps per block, 32f32f "
              << kN / 1024 << "k on " << gpu.name << "\n\n";
    TablePrinter t({"warps/block", "blocks/SM", "warps/SM", "occupancy",
                    "barriers", "est. time (us)"});

    Matrix<f32> img(kCal, kCal);
    fill_random(img, 4);
    const auto in = simt::DeviceBuffer<f32>::read_only_view(img.flat());

    for (const int wc : {4, 8, 16, 32}) {
        simt::Engine eng({.record_history = false});
        simt::DeviceBuffer<f32> mid(kCal * kCal), out(kCal * kCal);
        std::vector<simt::LaunchStats> calib{
            sat::launch_brlt_scanrow_pass<f32>(eng, in, kCal, kCal, mid,
                                               true, wc),
            sat::launch_brlt_scanrow_pass<f32>(eng, mid, kCal, kCal, out,
                                               true, wc)};

        double total_us = 0;
        std::uint64_t barriers = 0;
        model::Occupancy occ;
        for (const auto& l : calib) {
            simt::LaunchStats s = l;
            s.counters = model::scale_counters(l.counters, factor);
            s.config.grid.y = l.config.grid.y * (kN / kCal);
            s.counters.blocks =
                static_cast<std::uint64_t>(s.config.total_blocks());
            s.counters.warps =
                static_cast<std::uint64_t>(s.config.total_warps());
            const auto bt = model::estimate_kernel_time(gpu, s);
            total_us += bt.total_us;
            barriers += s.counters.barriers;
            occ = bt.occupancy;
        }
        t.add_row({TablePrinter::fmt_int(wc),
                   TablePrinter::fmt_int(occ.blocks_per_sm),
                   TablePrinter::fmt_int(occ.warps_per_sm),
                   TablePrinter::fmt(occ.fraction * 100, 0) + "%",
                   TablePrinter::fmt_int(static_cast<std::int64_t>(barriers)),
                   TablePrinter::fmt(total_us, 1)});
    }
    t.print(std::cout);
    std::cout << "\nSmaller blocks need more chunk iterations (more barrier "
                 "rounds and carry\ntraffic per byte); the paper's 32-warp "
                 "choice maximizes resident warps\nunder the BRLT shared-"
                 "memory footprint.\n";
    return 0;
}
