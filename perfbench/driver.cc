/**
 * @file
 * perfbench_driver: runs one benchmark workload and prints its
 * metrics.
 *
 *   perfbench_driver --workload warm_sweep|cold_prepare|serve_mix
 *                    --seed N --seconds S --trace 0|1
 *                    --out-dir DIR [--serve-bin PATH]
 *
 * --trace 0 reports the end-to-end metrics, --trace 1 the per-layer
 * metrics of a separate traced run.  A readable summary goes first;
 * the last stdout line is one JSON object with the keys correct,
 * attempted, failed and metrics.  Exit code 0 whenever that line is
 * printed (a failed output check shows as "correct": false), 1 when
 * the run could not complete, 2 on bad flags.
 */

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "obs/json.hh"
#include "workloads.hh"

using namespace perfbench;

namespace {

[[noreturn]] void
usage(const std::string &message)
{
    std::fprintf(stderr,
                 "perfbench_driver: %s\n"
                 "usage: perfbench_driver --workload "
                 "warm_sweep|cold_prepare|serve_mix --seed N --seconds S "
                 "--trace 0|1 --out-dir DIR [--serve-bin PATH]\n",
                 message.c_str());
    std::exit(2);
}

const std::vector<std::pair<std::string, std::string>> kEndToEnd = {
    {"setup_s", "s"},        {"ops_per_s", "1/s"},
    {"op_p50_ms", "ms"},     {"op_tail_ms", "ms"},
    {"peak_rss_mb", "MB"},   {"sim_cycles", "cycles"},
};

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    bool have_seed = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + arg);
        const std::string value = argv[++i];
        char *end = nullptr;
        if (arg == "--workload") {
            opt.workload = value;
        } else if (arg == "--seed") {
            opt.seed = std::strtoull(value.c_str(), &end, 0);
            have_seed = !value.empty() && *end == '\0';
            if (!have_seed)
                usage("bad --seed '" + value + "'");
        } else if (arg == "--seconds") {
            opt.seconds = static_cast<int>(std::strtol(value.c_str(), &end, 10));
            if (value.empty() || *end != '\0' || opt.seconds < 1)
                usage("bad --seconds '" + value + "'");
        } else if (arg == "--trace") {
            if (value != "0" && value != "1")
                usage("--trace takes 0 or 1");
            opt.trace = value == "1";
        } else if (arg == "--out-dir") {
            opt.out_dir = value;
        } else if (arg == "--serve-bin") {
            opt.serve_bin = value;
        } else {
            usage("unknown flag " + arg);
        }
    }
    if (opt.workload.empty() || !have_seed || opt.out_dir.empty())
        usage("--workload, --seed and --out-dir are required");
    return opt;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    const Options opt = parseArgs(argc, argv);
    Result result;
    try {
        if (opt.workload == "warm_sweep")
            result = runWarmSweep(opt);
        else if (opt.workload == "cold_prepare")
            result = runColdPrepare(opt);
        else if (opt.workload == "serve_mix")
            result = runServeMix(opt);
        else
            usage("unknown workload '" + opt.workload + "'");
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
        return 1;
    }

    // Pick the reported set; a layer this workload does not exercise
    // reads 0 in the traced report.
    std::map<std::string, Metric> by_name;
    for (const Metric &m : result.metrics)
        by_name[m.name] = m;
    std::string json;
    for (const auto &[name, unit] :
         opt.trace ? perLayerMetrics() : kEndToEnd) {
        const auto it = by_name.find(name);
        if (it == by_name.end() && !opt.trace) {
            std::fprintf(stderr, "perfbench_driver: no %s measured\n",
                         name.c_str());
            return 1;
        }
        const double value = it == by_name.end() ? 0.0 : it->second.value;
        std::printf("%-34s %16.6f %s\n", name.c_str(), value, unit.c_str());
        json += (json.empty() ? "" : ", ") + std::string("\"") + name +
                "\": {\"value\": " + sparsepipe::obs::jsonNumber(value) +
                ", \"unit\": \"" + unit + "\"}";
    }
    std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
                "\"metrics\": {%s}}\n",
                result.correct ? "true" : "false", result.attempted,
                result.failed, json.c_str());
    return 0;
}
