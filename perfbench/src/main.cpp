/**
 * @file
 * Fabric benchmark program: repeats one workload for a fixed wall time,
 * checks every repetition's outputs, and prints each metric with its
 * unit followed by one JSON result line. See README.md.
 *
 *   edm_perfbench --workload <name> --seed <n> --seconds <s>
 *                 --trace <0|1> [--trace-file <path>]
 *
 * --trace 0 reports the end-to-end metrics from untraced repetitions;
 * --trace 1 alternates untraced and traced repetitions and reports the
 * per-layer metrics. Host times are in reference seconds (see
 * calibrate.hpp).
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "calibrate.hpp"
#include "trace_stats.hpp"
#include "workload.hpp"

namespace {

using namespace perfbench;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kMinReps = 3;

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS "unknown"
#endif

struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0;
    int trace = -1;
    std::string trace_file = ".bench_build/perfbench.edmlog";
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "edm_perfbench: %s\nusage: edm_perfbench --workload <%s> "
                 "--seed <n> --seconds <s> --trace <0|1> "
                 "[--trace-file <path>]\n",
                 why, workloadNames().c_str());
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    bool have_seed = false;
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + k).c_str());
        const char *v = argv[++i];
        char *end = nullptr;
        if (k == "--workload") {
            a.workload = v;
        } else if (k == "--seed") {
            a.seed = std::strtoull(v, &end, 10);
            have_seed = *v && !*end;
        } else if (k == "--seconds") {
            a.seconds = std::strtod(v, &end);
        } else if (k == "--trace") {
            a.trace = std::strcmp(v, "1") == 0 ? 1
                : std::strcmp(v, "0") == 0     ? 0
                                               : -1;
        } else if (k == "--trace-file") {
            a.trace_file = v;
        } else {
            usage(("unknown option " + k).c_str());
        }
    }
    if (a.workload.empty() || !have_seed || !(a.seconds > 0) || a.trace < 0)
        usage("--workload, --seed, --seconds > 0 and --trace 0|1 are required");
    return a;
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Median of @p f over the repetitions. */
template <typename F>
double
medianOver(const std::vector<RepResult> &reps, F f)
{
    std::vector<double> v;
    for (const RepResult &r : reps)
        v.push_back(f(r));
    return median(std::move(v));
}

double
ratio(double num, double den)
{
    return den != 0 ? num / den : 0.0;
}

struct Metric
{
    std::string name;
    double value;
    std::string unit;
    std::string note; ///< "host", "sim", sample count...
};

/** Failed checks of one repetition against the invariants. */
int
checkRep(const WorkloadSpec &spec, const RepResult &rep)
{
    const SimResult &s = rep.sim;
    int bad = 0;
    auto expect = [&](bool ok, const char *what) {
        if (!ok) {
            std::fprintf(stderr, "check failed: %s\n", what);
            ++bad;
        }
    };
    expect(s.posted == s.completed + s.failed,
           "ops posted == ops completed + ops failed");
    expect(s.ledger_left == 0, "no live ledger entries at drain");
    expect(s.wasted_slots == 0, "no wasted grant slots (strict mode)");
    expect(s.read_mismatches == 0, "every determined read returns the "
                                   "bytes written");
    expect(s.reads_verified > 0, "some reads were verified");
    expect(s.frames_received ==
               s.frames_injected * (spec.cfg.num_nodes - 1),
           "every injected frame reaches every other host");
    expect(s.warnings == 0, "the fabric logged no warnings");
    expect(rep.trace_dropped == 0, "the event log dropped no records");
    return bad;
}

void
printFingerprint(const Args &a, std::size_t reps, std::size_t traced)
{
#if defined(__clang__)
    const char *cc = "clang";
#elif defined(__GNUC__)
    const char *cc = "gcc";
#else
    const char *cc = "c++";
#endif
    std::printf("fingerprint {\"nproc\": %ld, \"compiler\": \"%s %s\", "
                "\"build_type\": \"%s\", \"cxx_flags\": \"%s\", "
                "\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
                "\"reps\": %zu, \"traced_reps\": %zu}\n",
                sysconf(_SC_NPROCESSORS_ONLN), cc, __VERSION__,
                PERFBENCH_BUILD_TYPE, PERFBENCH_CXX_FLAGS,
                a.workload.c_str(), static_cast<unsigned long long>(a.seed),
                a.seconds, reps, traced);
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    const WorkloadSpec *spec = findWorkload(args.workload);
    if (!spec)
        usage(("unknown workload " + args.workload).c_str());

    std::vector<RepResult> plain;
    std::vector<RepResult> traced;
    TraceStats ts;
    double peak_rss_mb = 0;
    int bad = 0;
    const auto start = Clock::now();
    auto elapsed = [&] {
        return std::chrono::duration<double>(Clock::now() - start).count();
    };
    // The calibration kernel runs after every repetition. A repetition
    // is scaled by the mean of the two runs around it, which saw the
    // machine speed it saw; the first, which must run before the kernel
    // so peak_rss_mb is the workload's own, by the run after it alone.
    double cal_before = 0;
    const auto calibrate = [&cal_before](RepResult &rep) {
        const double cal_after = calibrationSeconds();
        const double cal = cal_before > 0 ? 0.5 * (cal_before + cal_after)
                                          : cal_after;
        rep.wall_timed = rep.host.timed;
        rep.host.scale(kCalibrationRefSeconds / cal);
        cal_before = cal_after;
    };
    do {
        plain.push_back(runRep(*spec, args.seed));
        bad += checkRep(*spec, plain.back());
        if (plain.size() == 1) {
            // Later repetitions reuse (and fragment) the same heap, so
            // the peak a single run of the workload needs is this one.
            rusage ru{};
            getrusage(RUSAGE_SELF, &ru);
            peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
        }
        calibrate(plain.back());
        if (args.trace) {
            traced.push_back(runRep(*spec, args.seed, args.trace_file));
            calibrate(traced.back());
            bad += checkRep(*spec, traced.back());
            if (traced.size() == 1 &&
                !readTraceStats(args.trace_file, ts)) {
                std::fprintf(stderr, "cannot read %s\n",
                             args.trace_file.c_str());
                ++bad;
            }
            std::remove(args.trace_file.c_str());
        }
    } while (elapsed() < args.seconds || plain.size() < kMinReps);

    // Identity: every repetition of one seed, traced or not, must
    // produce the same simulated outcome bit for bit.
    const SimResult &s = plain.front().sim;
    const std::uint64_t digest = s.digest();
    for (const auto *set : {&plain, &traced})
        for (const RepResult &r : *set)
            if (r.sim.digest() != digest) {
                std::fprintf(stderr, "check failed: simulated results "
                                     "differ between repetitions\n");
                ++bad;
            }
    if (args.trace && ts.grants_issued != s.grants) {
        std::fprintf(stderr, "check failed: trace holds %llu grants, "
                             "the schedulers issued %llu\n",
                     static_cast<unsigned long long>(ts.grants_issued),
                     static_cast<unsigned long long>(s.grants));
        ++bad;
    }

    const double ops = static_cast<double>(s.posted);
    const auto n = [](std::uint64_t c) {
        return "n=" + std::to_string(c);
    };
    std::vector<Metric> metrics;
    if (!args.trace) {
        metrics = {
            {"ops_per_s",
             medianOver(plain,
                        [&](const RepResult &r) { return ops / r.host.timed; }),
             "ops/s", "host"},
            {"setup_s",
             medianOver(plain,
                        [](const RepResult &r) {
                            return r.host.setup_workload +
                                r.host.setup_fabric;
                        }),
             "s", "host"},
            {"peak_rss_mb", peak_rss_mb, "MB", "host"},
            {"read_p50_ns", s.read_p50_ns, "ns", "sim " + n(s.read_n)},
            {"read_p99_ns", s.read_p99_ns, "ns", "sim " + n(s.read_n)},
            {"write_p50_ns", s.write_p50_ns, "ns", "sim " + n(s.write_n)},
            {"write_p99_ns", s.write_p99_ns, "ns", "sim " + n(s.write_n)},
            {"goodput_gbps", s.goodput_gbps, "Gbps", "sim"},
            {"ls_read_p99_ns", s.ls_read_p99_ns, "ns", "sim " + n(s.ls_read_n)},
        };
    } else {
        // Traced and untraced repetitions alternate, so pair i ran
        // under the most similar machine load.
        std::vector<double> overheads;
        for (std::size_t i = 0; i < traced.size(); ++i)
            overheads.push_back(traced[i].host.timed / plain[i].host.timed -
                                1.0);
        const double untraced = medianOver(plain, [](const RepResult &r) {
            return r.host.timed;
        });
        metrics = {
            {"sim.events", static_cast<double>(s.events), "count", "sim"},
            {"sim.events_per_op", ratio(s.events, ops), "events/op", "sim"},
            {"sim.ns_per_event", untraced * 1e9 / s.events, "ns", "host"},
            {"host.post_ns",
             medianOver(plain, [&](const RepResult &r) {
                 return r.host.posts * 1e9 / ops;
             }),
             "ns", "host"},
            {"host.mem_blocks_sent", static_cast<double>(s.mem_blocks_sent),
             "count", "sim"},
            {"host.notify_blocks", static_cast<double>(s.notify_blocks),
             "count", "sim"},
            {"host.grants_parked", static_cast<double>(s.grants_parked),
             "count", "sim"},
            {"host.read_timeouts", static_cast<double>(s.read_timeouts),
             "count", "sim"},
            {"host.id_wrap_stalls", static_cast<double>(s.id_stalls), "count",
             "sim"},
            {"sched.grants", static_cast<double>(s.grants), "count", "sim"},
            {"sched.grants_per_op", ratio(s.grants, ops), "grants/op", "sim"},
            {"sched.wasted_slots", static_cast<double>(s.wasted_slots),
             "count", "sim"},
            {"sched.grants_suppressed",
             static_cast<double>(s.grants_suppressed), "count", "sim"},
            {"sched.ledger_left", static_cast<double>(s.ledger_left),
             "count", "sim"},
            {"sched.grant_wait_p50_ns", ts.grant_wait_ns.percentile(50), "ns",
             "sim " + n(ts.grant_wait_ns.count())},
            {"sched.grant_wait_p99_ns", ts.grant_wait_ns.percentile(99), "ns",
             "sim " + n(ts.grant_wait_ns.count())},
            {"phy.mem_trains", static_cast<double>(ts.mem_trains), "count",
             "sim"},
            {"phy.frame_trains", static_cast<double>(ts.frame_trains),
             "count", "sim"},
            {"phy.blocks_per_train",
             ratio(ts.train_blocks, ts.mem_trains + ts.frame_trains),
             "blocks", "sim"},
            {"phy.trim_frac", ratio(ts.trimmed_blocks, ts.train_blocks),
             "ratio", "sim"},
            {"phy.preempts", static_cast<double>(ts.preempts), "count",
             "sim"},
            {"switch.frames_flooded", static_cast<double>(ts.frames_flooded),
             "count", "sim"},
            {"switch.peak_egress_staging",
             static_cast<double>(s.peak_staging), "blocks",
             "sim, informational"},
            {"fair.deferrals", static_cast<double>(ts.deferrals), "count",
             "sim"},
            {"fair.bypasses", static_cast<double>(ts.bypasses), "count",
             "sim"},
            {"fair.share_updates", static_cast<double>(ts.share_updates),
             "count", "sim"},
            {"net.tier_charges", static_cast<double>(ts.tier_charges),
             "count", "sim"},
            {"net.cross_leaf_frac", ratio(s.cross_leaf_ops, ops), "ratio",
             "sim"},
            {"op.transfer_p99_ns", ts.transfer_ns.percentile(99), "ns",
             "sim " + n(ts.transfer_ns.count())},
            {"trace.records_per_op",
             ratio(traced.front().trace_records, ops), "records/op", "sim"},
            {"trace.overhead", median(overheads), "ratio", "host"},
            {"setup.fabric_s",
             medianOver(plain,
                        [](const RepResult &r) { return r.host.setup_fabric; }),
             "s", "host"},
            {"setup.workload_s",
             medianOver(plain, [](const RepResult &r) {
                 return r.host.setup_workload;
             }),
             "s", "host"},
            {"stats.summary_s",
             medianOver(plain,
                        [](const RepResult &r) { return r.host.summary; }),
             "s", "host"},
        };
    }

    // Human-readable report: every metric with its unit, then the
    // values that are not benchmark metrics but qualify them.
    std::printf("workload %s seed %llu: %zu untraced + %zu traced "
                "repetitions of %llu ops in %.2f s\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), plain.size(),
                traced.size(), static_cast<unsigned long long>(s.posted),
                elapsed());
    for (const Metric &m : metrics)
        std::printf("  %-28s %18.6f %-10s %s\n", m.name.c_str(), m.value,
                    m.unit.c_str(), m.note.c_str());
    std::printf("  %-28s %18.6f %-10s host, unscaled wall rate\n",
                "ops_per_wall_s",
                medianOver(plain,
                           [&](const RepResult &r) {
                               return ops / r.wall_timed;
                           }),
                "ops/s");
    std::printf("  %-28s %18.6f %-10s %s\n", "failed_frac",
                ratio(s.posted - s.completed, ops), "ratio", "sim");
    if (s.probe_ns > 0)
        std::printf("  %-28s %18.6f %-10s sim, probe %.2f ns vs Table-1 "
                    "reference %.2f ns\n",
                    "unloaded_read_err_ns", s.probe_ns - s.probe_ref_ns, "ns",
                    s.probe_ns, s.probe_ref_ns);
    std::printf("  checks: reads verified %llu, undetermined %llu, "
                "mismatched %llu; frames %llu injected, %llu received; "
                "ledger left %llu; wasted slots %llu\n",
                static_cast<unsigned long long>(s.reads_verified),
                static_cast<unsigned long long>(s.reads_unverifiable),
                static_cast<unsigned long long>(s.read_mismatches),
                static_cast<unsigned long long>(s.frames_injected),
                static_cast<unsigned long long>(s.frames_received),
                static_cast<unsigned long long>(s.ledger_left),
                static_cast<unsigned long long>(s.wasted_slots));
    std::printf("digest %s seed %llu %016llx\n", args.workload.c_str(),
                static_cast<unsigned long long>(args.seed),
                static_cast<unsigned long long>(digest));
    printFingerprint(args, plain.size(), traced.size());

    std::uint64_t attempted = 0, failed = 0;
    for (const auto *set : {&plain, &traced})
        for (const RepResult &r : *set) {
            attempted += r.sim.posted;
            failed += r.sim.posted - r.sim.completed;
        }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                bad ? "false" : "true",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (std::size_t i = 0; i < metrics.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                    metrics[i].unit.c_str());
    std::printf("}}\n");
    return bad ? 1 : 0;
}
