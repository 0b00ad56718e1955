/**
 * @file
 * Golden-output regression test for the figure reproductions.
 *
 * Pins per-point values of the Figure 6 / 8a / 8b reproductions and the
 * 16-point cluster load sweep to the exact doubles produced by the
 * per-block-event fabric and the pure-heap event queue (the PR 1
 * baseline, captured before the block-train / timing-wheel rewrite).
 * Any change to event ordering — a different (time, seq) pop order, a
 * tie broken differently, a lost or duplicated event — shifts these
 * values, so the test proves the rewrite is observably invisible.
 *
 * The simulations here are deliberately smaller than the real figure
 * benches (fewer messages) but exercise every fabric model and the full
 * multi-threaded sweep machinery; values must be bit-identical for any
 * seed derivation and any EDM_SWEEP_THREADS.
 *
 * Regenerating (only legitimate after an *intentional* model change —
 * use the documented pipeline, which also emits the schedule-diff
 * summary):
 *   ./tools/rebaseline.sh            # or: cmake --build build -t rebaseline
 * which drives EDM_GOLDEN_REGEN=1 ./build/test_golden_figs underneath.
 */

#include <cstdio>
#include <cstdlib>
#include <vector>

#include <gtest/gtest.h>

#include "analytic/bandwidth_model.hpp"
#include "proto/cxl.hpp"
#include "proto/edm_model.hpp"
#include "proto/window_model.hpp"
#include "sim/scenario_config.hpp"
#include "sim/scenario_exec.hpp"
#include "sim/scenario_runner.hpp"
#include "workload/synthetic.hpp"
#include "workload/traces.hpp"
#include "workload/ycsb.hpp"

#include "../bench/bench_util.hpp"

namespace {

using namespace edm;
using namespace edm::bench;

bool
regenMode()
{
    const char *r = std::getenv("EDM_GOLDEN_REGEN");
    return r && r[0] == '1';
}

/**
 * Exact comparison: the contract is bit-identical reproduction, not
 * "close". A mismatch prints both values at full precision.
 */
void
expectExact(double expected, double actual, const char *what,
            std::size_t index)
{
    EXPECT_EQ(expected, actual)
        << what << "[" << index << "]: expected " << std::hexfloat
        << expected << " got " << actual << std::defaultfloat << " ("
        << expected << " vs " << actual << ")";
}

void
regenPrint(const char *name, const std::vector<double> &values)
{
    std::printf("constexpr double %s[] = {\n", name);
    for (double v : values)
        std::printf("    %.17g,\n", v);
    std::printf("};\n");
}

/** Fig 8a slice: all seven fabrics at a low and a high load point. */
std::vector<double>
fig8aValues()
{
    std::vector<PointSpec> points;
    for (double load : {0.2, 0.8})
        for (auto f : allFabrics()) {
            PointSpec p;
            p.fabric = f;
            p.load = load;
            p.write_fraction = 1.0;
            p.messages = 4000;
            points.push_back(p);
        }
    std::vector<double> out;
    for (const RunResult &r : runPointsParallel(points)) {
        out.push_back(r.norm_mean);
        out.push_back(r.norm_p99);
    }
    return out;
}

/** Fig 8b slice: two app traces across all fabrics, 50/50 mix. */
std::vector<double>
fig8bValues()
{
    const auto traces = workload::allTraces();
    std::vector<PointSpec> points;
    for (std::size_t t = 0; t < traces.size() && t < 2; ++t) {
        const Cdf cdf = workload::traceSizeCdf(traces[t]);
        for (auto f : allFabrics()) {
            PointSpec p;
            p.fabric = f;
            p.load = 0.8;
            p.write_fraction = 0.5;
            p.messages = 3000;
            p.size_cdf = cdf;
            points.push_back(p);
        }
    }
    std::vector<double> out;
    for (const RunResult &r : runPointsParallel(points))
        out.push_back(r.norm_mean);
    return out;
}

/** Fig 6: the full analytic YCSB-throughput grid (closed form). */
std::vector<double>
fig6Values()
{
    std::vector<double> out;
    for (auto fr : {analytic::Framing::Edm, analytic::Framing::Rdma})
        for (auto w : {workload::YcsbWorkload::A, workload::YcsbWorkload::B,
                       workload::YcsbWorkload::F})
            out.push_back(analytic::throughputMrps(fr, w, Gbps{100.0}));
    return out;
}

/**
 * The 16-point cluster sweep of examples/cluster_load_sweep.cpp (EDM vs
 * DCTCP vs CXL), shrunk to 4000 messages per point. Uses the runner's
 * derived seed streams, so it also pins the seed-derivation chain.
 */
std::vector<double>
clusterSweepValues()
{
    constexpr int kLoadPoints = 16;
    std::vector<double> loads;
    for (int i = 0; i < kLoadPoints; ++i)
        loads.push_back(0.05 + i * 0.90 / (kLoadPoints - 1));

    ScenarioRunner::Options opts;
    opts.base_seed = 11;
    ScenarioRunner runner(opts);
    for (int f = 0; f < 3; ++f)
        for (double load : loads)
            runner.add("pt", [f, load](ScenarioContext &ctx) {
                Simulation &sim = ctx.sim();
                proto::ClusterConfig cluster;
                cluster.num_nodes = 144;
                std::unique_ptr<proto::FabricModel> model;
                workload::WireFn wire = workload::wire::edm;
                switch (f) {
                  case 0:
                    model = std::make_unique<proto::EdmFlowModel>(sim,
                                                                  cluster);
                    break;
                  case 1:
                    model = std::make_unique<proto::DctcpModel>(sim,
                                                                cluster);
                    wire = workload::wire::tcp;
                    break;
                  default:
                    model = std::make_unique<proto::CxlModel>(sim,
                                                              cluster);
                    wire = workload::wire::cxl;
                    break;
                }
                workload::SyntheticConfig cfg;
                cfg.num_nodes = cluster.num_nodes;
                cfg.load = load;
                cfg.write_fraction = 1.0;
                cfg.messages = 4000;
                for (const auto &j :
                     workload::generateSynthetic(ctx.rng(), cfg, wire))
                    model->offer(j);
                sim.run();
                ctx.record("norm_mean", model->normalized().mean());
            });

    std::vector<double> out;
    for (const ScenarioResult &r : runner.runAll())
        out.push_back(r.metricStat("norm_mean").mean());
    return out;
}

/**
 * Cluster-scale leaf-spine tier: every mode of the shipped
 * scenarios/leaf_spine.edm (65 hosts over five leaves, strict sharded
 * scheduler) on its full 64-to-1 incast point, pinning
 * completed / grants / wasted / parked / peak staging / read_p99 per
 * row. Loads the real scenario file, so the golden also notices edits
 * to the .edm itself.
 */
std::vector<double>
leafSpineValues()
{
    ScenarioSpec spec;
    std::string error;
    if (!loadScenarioSpec(EDM_SOURCE_DIR "/scenarios/leaf_spine.edm",
                          spec, error)) {
        ADD_FAILURE() << "leaf_spine.edm: " << error;
        return {};
    }
    ScenarioRunner::Options opts;
    opts.base_seed = spec.base_seed;
    ScenarioRunner runner(opts);
    for (const ScenarioModeSpec &mode : spec.modes)
        for (std::size_t nodes : spec.n_to_1)
            runner.add(mode.name, [&spec, &mode, nodes](
                                      ScenarioContext &ctx) {
                runIncastPoint(ctx, IncastPoint{"N-to-1", nodes},
                               spec.workload, spec.rounds,
                               spec.configFor(mode));
            });
    std::vector<double> out;
    for (const ScenarioResult &r : runner.runAll()) {
        out.push_back(r.metricStat("completed").mean());
        out.push_back(r.metricStat("grants").mean());
        out.push_back(r.metricStat("wasted_slots").mean());
        out.push_back(r.metricStat("parked").mean());
        out.push_back(r.metricStat("peak_staging").mean());
        out.push_back(r.metricStat("read_p99").mean());
    }
    return out;
}

/**
 * Multi-tenant fair-share tier: both modes of the shipped
 * scenarios/tenant_isolation.edm (17-node incast, three tenant pools:
 * weighted bulk0, rate-limited bulk1, latency-sensitive ls) on the
 * full fan-in, pinning completed / grants / read_p99 and each pool's
 * read p99 per row. The legacy row doubles as the frozen proof that a
 * parsed-but-disabled pool tree leaves the schedule untouched; the
 * fairshare row freezes the noisy-neighbor isolation headline.
 */
std::vector<double>
fairShareValues()
{
    ScenarioSpec spec;
    std::string error;
    if (!loadScenarioSpec(
            EDM_SOURCE_DIR "/scenarios/tenant_isolation.edm", spec,
            error)) {
        ADD_FAILURE() << "tenant_isolation.edm: " << error;
        return {};
    }
    ScenarioRunner::Options opts;
    opts.base_seed = spec.base_seed;
    ScenarioRunner runner(opts);
    for (const ScenarioModeSpec &mode : spec.modes)
        for (std::size_t nodes : spec.n_to_1)
            runner.add(mode.name, [&spec, &mode, nodes](
                                      ScenarioContext &ctx) {
                runIncastPoint(ctx, IncastPoint{"N-to-1", nodes},
                               spec.workload, spec.rounds,
                               spec.configFor(mode));
            });
    std::vector<double> out;
    for (const ScenarioResult &r : runner.runAll()) {
        out.push_back(r.metricStat("completed").mean());
        out.push_back(r.metricStat("grants").mean());
        out.push_back(r.metricStat("read_p99").mean());
        out.push_back(r.metricStat("pool_bulk0_p99_ns").mean());
        out.push_back(r.metricStat("pool_bulk1_p99_ns").mean());
        out.push_back(r.metricStat("pool_ls_p99_ns").mean());
    }
    return out;
}

// ---------------------------------------------------------------------------
// Golden values: captured from the PR 1 baseline (indexed 4-ary heap
// event queue, per-block fabric emission) with EDM_GOLDEN_REGEN=1.
// ---------------------------------------------------------------------------

#include "golden_figs_values.inc"

void
checkOrRegen(const char *name, const double *golden, std::size_t n,
             const std::vector<double> &actual)
{
    if (regenMode()) {
        regenPrint(name, actual);
        return;
    }
    ASSERT_EQ(n, actual.size()) << name << ": point count changed";
    for (std::size_t i = 0; i < n; ++i)
        expectExact(golden[i], actual[i], name, i);
}

} // namespace

TEST(GoldenFigs, Fig6AnalyticThroughput)
{
    checkOrRegen("kGoldenFig6", kGoldenFig6, std::size(kGoldenFig6),
                 fig6Values());
}

TEST(GoldenFigs, Fig8aLoadLatency)
{
    checkOrRegen("kGoldenFig8a", kGoldenFig8a, std::size(kGoldenFig8a),
                 fig8aValues());
}

TEST(GoldenFigs, Fig8bAppTraces)
{
    checkOrRegen("kGoldenFig8b", kGoldenFig8b, std::size(kGoldenFig8b),
                 fig8bValues());
}

TEST(GoldenFigs, ClusterLoadSweep)
{
    checkOrRegen("kGoldenClusterSweep", kGoldenClusterSweep,
                 std::size(kGoldenClusterSweep), clusterSweepValues());
}

TEST(GoldenFigs, LeafSpineCluster)
{
    checkOrRegen("kGoldenLeafSpine", kGoldenLeafSpine,
                 std::size(kGoldenLeafSpine), leafSpineValues());
}

TEST(GoldenFigs, FairShareTenantIsolation)
{
    checkOrRegen("kGoldenFairShare", kGoldenFairShare,
                 std::size(kGoldenFairShare), fairShareValues());
}

TEST(GoldenFigs, FairShareIsolatesLatencySensitivePool)
{
    // The noisy-neighbor acceptance bar, checked on live values so it
    // holds through regeneration: turning the pool tree on must keep
    // every job completing while cutting the latency-sensitive pool's
    // read p99 to less than half of what it suffers under legacy FCFS
    // arbitration. Row layout: 6 metrics per mode, legacy then
    // fairshare (see fairShareValues()).
    const auto v = fairShareValues();
    ASSERT_EQ(v.size(), 12u);
    EXPECT_EQ(v[0], v[6]);            // completed: no work lost
    EXPECT_LT(v[6 + 5], v[5] / 2.0);  // ls pool p99 at least halved
}

TEST(GoldenFigs, ThreadCountInvariance)
{
    // The sweep values must not depend on the worker pool size: re-run
    // the cluster sweep single-threaded and compare against whatever the
    // default pool produced (itself pinned above).
    if (regenMode())
        GTEST_SKIP() << "regen mode";
    setenv("EDM_SWEEP_THREADS", "1", 1);
    const auto serial = clusterSweepValues();
    unsetenv("EDM_SWEEP_THREADS");
    ASSERT_EQ(std::size(kGoldenClusterSweep), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i)
        expectExact(kGoldenClusterSweep[i], serial[i],
                    "kGoldenClusterSweep(serial)", i);
}
