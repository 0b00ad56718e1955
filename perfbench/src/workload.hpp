/**
 * @file
 * Benchmark workloads: seeded generation of an op and frame schedule,
 * and one repetition of that schedule on a fresh CycleFabric.
 *
 * The generator lives here, not in the simulator library, so the
 * library sees only the generated schedule and a library change can
 * never alter the benchmark's inputs.
 */

#ifndef PERFBENCH_WORKLOAD_HPP
#define PERFBENCH_WORKLOAD_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "common/time.hpp"
#include "core/config.hpp"

namespace perfbench {

using edm::Picoseconds;

/** One memory op of the schedule. */
struct Op
{
    Picoseconds due = 0; ///< open loop: post time (after the probe)
    std::uint16_t src = 0;
    std::uint16_t dst = 0;
    bool write = false;
    std::uint32_t len = 0;
    std::uint64_t addr = 0;    ///< byte address in dst's memory
    std::uint32_t payload = 0; ///< write: offset into Schedule::payload
};

/** Ops [first, first + count) posted in order by one client. */
struct Stream
{
    std::uint32_t first = 0;
    std::uint32_t count = 0;
};

/** A jumbo L2 frame injected on @p src's uplink at simulated @p at. */
struct FrameInject
{
    Picoseconds at = 0;
    std::uint16_t src = 0;
};

/** Everything the fabric receives in one trial. */
struct Schedule
{
    std::vector<Op> ops;
    std::vector<Stream> streams;
    std::vector<std::uint8_t> payload;  ///< write bytes, concatenated
    std::vector<FrameInject> frames;
    std::vector<std::uint8_t> frame_bytes;
    /** Bytes of address space each node's memory is used over. */
    std::vector<std::uint64_t> window;
    bool has_probe = false; ///< ops[0] is an isolated read run first
};

/** Shape of one workload (see README.md for why each exists). */
struct WorkloadSpec
{
    std::string name;
    edm::core::EdmConfig cfg;        ///< fabric config, num_nodes set
    std::vector<std::uint16_t> memory_nodes; ///< empty: every node
    bool open_loop = false;
    /**
     * Independent trials per repetition, each on a fresh fabric with
     * its own schedule; latencies pool across trials. The fair-share
     * limit window makes the write tail of one long run depend on the
     * seed; independent trials average that out where length does not.
     */
    int trials = 1;

    // ---- closed loop: `chains` per client, `rounds` ops each ----
    std::uint16_t client_lo = 1;
    std::uint16_t client_hi = 1; ///< inclusive
    int chains = 0;
    int rounds = 0;
    std::uint32_t read_bytes = 0;
    std::uint32_t write_bytes = 0;
    double read_frac = 0.0;

    // ---- open loop: Poisson arrivals per host at `load` x line rate ----
    double load = 0.0;
    Picoseconds duration = 0; ///< arrivals span [0, duration)

    // ---- L2 interference ----
    std::vector<std::uint16_t> frame_hosts;
    int frames_per_host = 0;
    Picoseconds frame_interval = 0;
    std::uint32_t frame_payload = 0;
};

/** The benchmark's workloads, by name; nullptr when unknown. */
const WorkloadSpec *findWorkload(const std::string &name);

/** Names of every workload, for usage messages. */
std::string workloadNames();

/**
 * Simulated outcome of one repetition: counts and end times summed
 * over its trials, latencies pooled, peak staging the maximum. Every
 * value is a property of the modelled fabric and must repeat bit for
 * bit for a given seed, traced or not.
 */
struct SimResult
{
    std::uint64_t posted = 0;
    std::uint64_t completed = 0; ///< successfully
    std::uint64_t failed = 0;    ///< timed out or NULL reads
    std::uint64_t good_bytes = 0;
    std::uint64_t read_n = 0, write_n = 0, ls_read_n = 0;
    double read_p50_ns = 0, read_p99_ns = 0;
    double write_p50_ns = 0, write_p99_ns = 0;
    double ls_read_p99_ns = 0;
    double goodput_gbps = 0;
    Picoseconds end_time = 0;
    std::uint64_t events = 0;
    std::uint64_t cross_leaf_ops = 0;

    // ---- correctness ----
    std::uint64_t reads_verified = 0;
    std::uint64_t reads_unverifiable = 0; ///< a write to it was in flight
    std::uint64_t read_mismatches = 0;
    std::uint64_t frames_injected = 0;
    std::uint64_t frames_received = 0;

    // ---- layer counters from the public accessors ----
    std::uint64_t mem_blocks_sent = 0;
    std::uint64_t notify_blocks = 0;
    std::uint64_t grants_parked = 0;
    std::uint64_t read_timeouts = 0;
    std::uint64_t id_stalls = 0;
    std::uint64_t grants = 0;
    std::uint64_t wasted_slots = 0;
    std::uint64_t grants_suppressed = 0;
    std::uint64_t ledger_left = 0;
    std::uint64_t peak_staging = 0;
    std::uint64_t warnings = 0; ///< EDM_WARN emissions during the rep

    // ---- unloaded probe vs the Table-1 reference (probe workloads) ----
    double probe_ns = 0;
    double probe_ref_ns = 0;

    /** Stable hash of every field above (the identity digest). */
    std::uint64_t digest() const;
};

/** Host time of one repetition (all its trials), in seconds. */
struct HostTimes
{
    double setup_workload = 0; ///< schedule generation + check state
    double setup_fabric = 0;   ///< CycleFabric construction
    double timed = 0;   ///< first post .. drained + summarized
    double posts = 0;   ///< inside read()/write() calls
    double summary = 0; ///< inside latency accessors/percentiles

    /** Multiply every time by @p f (wall -> reference seconds). */
    void
    scale(double f)
    {
        setup_workload *= f;
        setup_fabric *= f;
        timed *= f;
        posts *= f;
        summary *= f;
    }
};

struct RepResult
{
    SimResult sim;
    HostTimes host;
    double wall_timed = 0; ///< host.timed in wall seconds, unscaled
    std::uint64_t trace_records = 0; ///< traced reps only
    std::uint64_t trace_dropped = 0;
};

/**
 * Generate, build and drain every trial of one repetition of @p spec;
 * the same seed gives the same schedules. With @p trace_path non-empty
 * an EventLog streams every record there.
 */
RepResult runRep(const WorkloadSpec &spec, std::uint64_t seed,
                 const std::string &trace_path = {});

} // namespace perfbench

#endif // PERFBENCH_WORKLOAD_HPP
