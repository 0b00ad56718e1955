/**
 * @file
 * Shared helpers for the experiment-reproduction benchmarks: model
 * factories, wire-cost mapping, and one-line experiment runs.
 *
 * Scale note: set EDM_BENCH_SCALE (e.g. 0.2) to shrink message counts
 * for quick runs; results are noisier but the shapes survive.
 */

#ifndef EDM_BENCH_BENCH_UTIL_HPP
#define EDM_BENCH_BENCH_UTIL_HPP

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "proto/cxl.hpp"
#include "proto/edm_model.hpp"
#include "proto/fastpass.hpp"
#include "proto/ird.hpp"
#include "proto/window_model.hpp"
#include "sim/scenario_runner.hpp"
#include "workload/synthetic.hpp"

// Build identity for the BENCH_*.json fingerprint; CMake defines both.
#ifndef EDM_BENCH_BUILD_TYPE
#define EDM_BENCH_BUILD_TYPE "unknown"
#endif
#ifndef EDM_BENCH_CXX_FLAGS
#define EDM_BENCH_CXX_FLAGS "unknown"
#endif

namespace edm {
namespace bench {

/** The seven fabrics of §4.3, in the paper's presentation order. */
enum class Fabric
{
    Edm,
    Ird,
    Pfabric,
    Pfc,
    Dctcp,
    Cxl,
    Fastpass,
};

inline std::vector<Fabric>
allFabrics()
{
    return {Fabric::Edm, Fabric::Ird, Fabric::Pfabric, Fabric::Pfc,
            Fabric::Dctcp, Fabric::Cxl, Fabric::Fastpass};
}

inline const char *
fabricName(Fabric f)
{
    switch (f) {
      case Fabric::Edm: return "EDM";
      case Fabric::Ird: return "IRD";
      case Fabric::Pfabric: return "pFabric";
      case Fabric::Pfc: return "PFC";
      case Fabric::Dctcp: return "DCTCP";
      case Fabric::Cxl: return "CXL";
      case Fabric::Fastpass: return "Fastpass";
    }
    return "?";
}

inline std::unique_ptr<proto::FabricModel>
makeModel(Fabric f, Simulation &sim, const proto::ClusterConfig &cluster,
          core::Priority edm_priority = core::Priority::Srpt,
          Bytes edm_chunk = 256, int edm_x = 3)
{
    switch (f) {
      case Fabric::Edm: {
        proto::EdmModelConfig cfg;
        cfg.priority = edm_priority;
        cfg.chunk_bytes = edm_chunk;
        cfg.max_notifications = edm_x;
        return std::make_unique<proto::EdmFlowModel>(sim, cluster, cfg);
      }
      case Fabric::Ird:
        return std::make_unique<proto::IrdModel>(sim, cluster);
      case Fabric::Pfabric:
        return std::make_unique<proto::PfabricModel>(sim, cluster);
      case Fabric::Pfc:
        return std::make_unique<proto::PfcDcqcnModel>(sim, cluster);
      case Fabric::Dctcp:
        return std::make_unique<proto::DctcpModel>(sim, cluster);
      case Fabric::Cxl:
        return std::make_unique<proto::CxlModel>(sim, cluster);
      case Fabric::Fastpass:
        return std::make_unique<proto::FastpassModel>(sim, cluster);
    }
    return nullptr;
}

/** Load-calibration wire function for each fabric's own framing. */
inline workload::WireFn
wireFn(Fabric f)
{
    switch (f) {
      case Fabric::Edm: return workload::wire::edm;
      case Fabric::Ird: return workload::wire::ethernet;
      case Fabric::Pfabric: return workload::wire::tcp;
      case Fabric::Pfc: return workload::wire::rdma;
      case Fabric::Dctcp: return workload::wire::tcp;
      case Fabric::Cxl: return workload::wire::cxl;
      case Fabric::Fastpass: return workload::wire::ethernet;
    }
    return workload::wire::ethernet;
}

/** Result of one simulated experiment point. */
struct RunResult
{
    double norm_mean = 0;  ///< mean latency / own unloaded latency
    double norm_p99 = 0;
    double mean_ns = 0;
    std::uint64_t completed = 0;
};

/** Global message-count scaling from EDM_BENCH_SCALE. */
inline double
benchScale()
{
    if (const char *s = std::getenv("EDM_BENCH_SCALE")) {
        const double v = std::atof(s);
        if (v > 0)
            return v;
    }
    return 1.0;
}

/**
 * Machine-readable benchmark results: every record is one (name, config)
 * measurement with a few numeric metrics. Writing BENCH_*.json files
 * from each harness lets CI archive the perf trajectory across PRs.
 *
 *   BenchJson out("fabric_hotpath", BenchJson::pathFromArgs(argc, argv));
 *   out.record("bulk-read", "train=24", {{"ns_per_op", 12.3},
 *                                        {"blocks_per_sec", 8.1e7}});
 *   // written on destruction (or call write() explicitly)
 *
 * Every file carries a "machine" fingerprint (nproc, compiler, build
 * type and flags, EDM_BENCH_SCALE) so rows from different machines or
 * builds are never compared blind.
 */
class BenchJson
{
  public:
    using Metrics = std::vector<std::pair<std::string, double>>;

    /**
     * Extract the value of a `--json <path>` argument pair; empty string
     * (no file written) when absent.
     */
    static std::string
    pathFromArgs(int argc, char **argv)
    {
        for (int i = 1; i + 1 < argc; ++i)
            if (std::strcmp(argv[i], "--json") == 0)
                return argv[i + 1];
        return {};
    }

    BenchJson(std::string bench_name, std::string path)
        : bench_name_(std::move(bench_name)), path_(std::move(path))
    {
    }

    BenchJson(const BenchJson &) = delete;
    BenchJson &operator=(const BenchJson &) = delete;

    ~BenchJson() { write(); }

    void
    record(const std::string &name, const std::string &config,
           const Metrics &metrics)
    {
        records_.push_back(Record{name, config, metrics});
    }

    /** Write (once) to the --json path; no-op without one. */
    void
    write()
    {
        if (written_ || path_.empty())
            return;
        written_ = true;
        std::FILE *f = std::fopen(path_.c_str(), "w");
        if (!f) {
            std::fprintf(stderr, "bench: cannot write %s\n", path_.c_str());
            return;
        }
        std::fprintf(f,
                     "{\n  \"bench\": \"%s\",\n  \"machine\": {\"nproc\": "
                     "%u, \"compiler\": \"%s\", \"build_type\": \"%s\", "
                     "\"cxx_flags\": \"%s\", \"scale\": %.17g},\n"
                     "  \"results\": [",
                     bench_name_.c_str(),
                     std::thread::hardware_concurrency(),
                     jsonEscape(compilerName()).c_str(),
                     jsonEscape(EDM_BENCH_BUILD_TYPE).c_str(),
                     jsonEscape(EDM_BENCH_CXX_FLAGS).c_str(), benchScale());
        for (std::size_t i = 0; i < records_.size(); ++i) {
            const Record &r = records_[i];
            std::fprintf(f, "%s\n    {\"name\": \"%s\", \"config\": \"%s\"",
                         i ? "," : "", r.name.c_str(), r.config.c_str());
            for (const auto &[key, value] : r.metrics)
                std::fprintf(f, ", \"%s\": %.17g", key.c_str(), value);
            std::fprintf(f, "}");
        }
        std::fprintf(f, "\n  ]\n}\n");
        std::fclose(f);
        std::printf("wrote %s (%zu results)\n", path_.c_str(),
                    records_.size());
    }

  private:
    struct Record
    {
        std::string name;
        std::string config;
        Metrics metrics;
    };

    static std::string
    compilerName()
    {
#if defined(__clang__)
        return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
        return std::string("gcc ") + __VERSION__;
#else
        return "unknown";
#endif
    }

    static std::string
    jsonEscape(const std::string &in)
    {
        std::string out;
        for (const char c : in) {
            if (c == '"' || c == '\\')
                out += '\\';
            out += c;
        }
        return out;
    }

    std::string bench_name_;
    std::string path_;
    std::vector<Record> records_;
    bool written_ = false;
};

/** Fully-specified experiment point of the §4.3 simulations. */
struct PointSpec
{
    Fabric fabric = Fabric::Edm;
    double load = 0.5;
    double write_fraction = 1.0;
    std::uint64_t messages = 50000;
    Cdf size_cdf = {};
    std::uint64_t seed = 42;
    core::Priority edm_priority = core::Priority::Srpt;
    Bytes edm_chunk = 256;
    int edm_x = 3;
};

/** Run one experiment point. A new knob only touches PointSpec here. */
inline RunResult
runPoint(const PointSpec &p)
{
    Simulation sim(p.seed);
    proto::ClusterConfig cluster;
    cluster.num_nodes = 144; // §4.3 setup
    auto model = makeModel(p.fabric, sim, cluster, p.edm_priority,
                           p.edm_chunk, p.edm_x);

    workload::SyntheticConfig cfg;
    cfg.num_nodes = cluster.num_nodes;
    cfg.load = p.load;
    cfg.write_fraction = p.write_fraction;
    cfg.messages =
        static_cast<std::uint64_t>(p.messages * benchScale());
    cfg.size_cdf = p.size_cdf;

    Rng rng(p.seed * 77 + 1);
    const auto jobs = workload::generateSynthetic(rng, cfg,
                                                  wireFn(p.fabric));
    for (const auto &j : jobs)
        model->offer(j);
    sim.run();

    RunResult r;
    r.norm_mean = model->normalized().mean();
    r.norm_p99 = model->normalized().percentile(99);
    r.mean_ns = model->latency().mean();
    r.completed = model->completed();
    return r;
}

/** Positional convenience wrapper over runPoint(PointSpec). */
inline RunResult
runPoint(Fabric f, double load, double write_fraction,
         std::uint64_t messages, const Cdf &size_cdf = {},
         std::uint64_t seed = 42,
         core::Priority edm_priority = core::Priority::Srpt,
         Bytes edm_chunk = 256, int edm_x = 3)
{
    PointSpec p;
    p.fabric = f;
    p.load = load;
    p.write_fraction = write_fraction;
    p.messages = messages;
    p.size_cdf = size_cdf;
    p.seed = seed;
    p.edm_priority = edm_priority;
    p.edm_chunk = edm_chunk;
    p.edm_x = edm_x;
    return runPoint(p);
}

/**
 * Run many experiment points concurrently on a ScenarioRunner pool.
 *
 * Each point carries its own explicit seed (runPoint ignores the
 * runner's derived seed streams), so the returned RunResults are
 * *identical* to calling runPoint() serially in a loop — only the
 * wall-clock changes. Results are returned in input order. Set
 * EDM_SWEEP_THREADS to pin the pool size (handled by ScenarioRunner).
 */
inline std::vector<RunResult>
runPointsParallel(const std::vector<PointSpec> &points)
{
    ScenarioRunner runner;
    for (std::size_t i = 0; i < points.size(); ++i) {
        const PointSpec &p = points[i];
        runner.add(std::string(fabricName(p.fabric)) + "#" +
                       std::to_string(i),
                   [p](ScenarioContext &ctx) {
                       const RunResult r = runPoint(p);
                       ctx.record("norm_mean", r.norm_mean);
                       ctx.record("norm_p99", r.norm_p99);
                       ctx.record("mean_ns", r.mean_ns);
                       ctx.record("completed",
                                  static_cast<double>(r.completed));
                   });
    }
    std::vector<RunResult> out;
    out.reserve(points.size());
    for (const ScenarioResult &sr : runner.runAll()) {
        RunResult r;
        r.norm_mean = sr.metricStat("norm_mean").mean();
        r.norm_p99 = sr.metricStat("norm_p99").mean();
        r.mean_ns = sr.metricStat("mean_ns").mean();
        r.completed = static_cast<std::uint64_t>(
            sr.metricStat("completed").mean());
        out.push_back(r);
    }
    return out;
}

} // namespace bench
} // namespace edm

#endif // EDM_BENCH_BENCH_UTIL_HPP
