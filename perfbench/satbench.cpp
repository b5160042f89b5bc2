// satbench: runs one workload of the repo benchmark and prints one JSON
// object (metrics, counts, notes) as its last line.  perfbench/run.py
// builds it, runs it, adds the process's peak RSS and formats the result;
// see perfbench/README.md.
//
//   satbench --workload batch_large --seed 1 --seconds 12 --trace 0
//            [--trace-out spans.json]
#include "bench.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <map>
#include <string>

namespace {

using namespace perfbench;

[[noreturn]] void usage(const char* why)
{
    std::cerr << "satbench: " << why
              << "\nusage: satbench --workload batch_large|serve_mixed|"
                 "query_fused|stream_window --seed N --seconds S "
                 "--trace 0|1 [--trace-out FILE]\n";
    std::exit(2);
}

std::string json_string(const std::string& s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

std::string json_number(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

} // namespace

int main(int argc, char** argv)
{
    std::map<std::string, std::string> args;
    for (int i = 1; i + 1 < argc; i += 2)
        args[argv[i]] = argv[i + 1];
    if (argc % 2 == 0)
        usage("every option takes a value");
    for (const char* required : {"--workload", "--seed", "--seconds",
                                 "--trace"})
        if (!args.contains(required))
            usage("missing option");

    Context ctx;
    try {
        ctx.seed = std::stoull(args["--seed"]);
        ctx.seconds = std::stod(args["--seconds"]);
    } catch (const std::exception&) {
        usage("--seed and --seconds take numbers");
    }
    if (!(ctx.seconds > 0 && ctx.seconds <= 600))
        usage("--seconds must be in (0, 600]");
    if (args["--trace"] != "0" && args["--trace"] != "1")
        usage("--trace takes 0 or 1");
    ctx.trace = args["--trace"] == "1";
    Tracer tracer(ctx.trace);
    ctx.tracer = &tracer;

    const std::string workload = args["--workload"];
    Report rep;
    if (workload == "batch_large")
        rep = run_batch_large(ctx);
    else if (workload == "serve_mixed")
        rep = run_serve_mixed(ctx);
    else if (workload == "query_fused")
        rep = run_query_fused(ctx);
    else if (workload == "stream_window")
        rep = run_stream_window(ctx);
    else
        usage("unknown workload");

    if (ctx.trace) {
        const std::vector<Span> spans = tracer.spans();
        const LayerTimes lt = layer_times(spans);
        for (const Layer l : kProgramLayers)
            rep.put(std::string("layer.") + layer_name(l) + ".self_ms",
                    lt.self_ms[static_cast<int>(l)], "ms");
        // Only service futures block their caller.
        rep.put("layer.service.wait_ms",
                lt.wait_ms[static_cast<int>(Layer::kService)], "ms");
        rep.note("spans recorded: " + std::to_string(spans.size()));
        if (args.contains("--trace-out"))
            tracer.write_chrome_json(args["--trace-out"]);
    }

    std::string out = "{\"workload\":" + json_string(workload) +
                      ",\"attempted\":" + std::to_string(rep.attempted) +
                      ",\"failed\":" + std::to_string(rep.failed) +
                      ",\"mismatches\":" + std::to_string(rep.mismatches) +
                      ",\"metrics\":{";
    for (std::size_t i = 0; i < rep.metrics.size(); ++i) {
        const Metric& m = rep.metrics[i];
        out += (i ? "," : "") + json_string(m.name) +
               ":{\"value\":" + json_number(m.value) +
               ",\"unit\":" + json_string(m.unit) + "}";
    }
    out += "},\"notes\":[";
    for (std::size_t i = 0; i < rep.notes.size(); ++i)
        out += (i ? "," : "") + json_string(rep.notes[i]);
    out += "]}";
    std::cout << out << std::endl;
    return 0;
}
