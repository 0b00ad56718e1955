#include "workload.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>

#include "analytic/latency_model.hpp"
#include "common/logging.hpp"
#include "core/fabric.hpp"
#include "mac/frame.hpp"
#include "sim/simulation.hpp"
#include "trace/event_log.hpp"

namespace perfbench {

using edm::core::CycleFabric;
using edm::core::EdmConfig;
using Clock = std::chrono::steady_clock;

namespace {

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** xoshiro256** seeded by splitmix64: the benchmark's own generator. */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed)
    {
        for (auto &w : s_) {
            seed += 0x9e3779b97f4a7c15ULL;
            std::uint64_t z = seed;
            z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
            z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
            w = z ^ (z >> 31);
        }
    }

    std::uint64_t
    next()
    {
        const std::uint64_t out = rotl(s_[1] * 5, 7) * 9;
        const std::uint64_t t = s_[1] << 17;
        s_[2] ^= s_[0];
        s_[3] ^= s_[1];
        s_[1] ^= s_[2];
        s_[0] ^= s_[3];
        s_[2] ^= t;
        s_[3] = rotl(s_[3], 45);
        return out;
    }

    /** Uniform in [0, 1). */
    double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

    /** Uniform in [0, n). */
    std::uint64_t below(std::uint64_t n) { return next() % n; }

    /** Exponential with the given mean. */
    double exponential(double mean) { return -mean * std::log1p(-uniform()); }

  private:
    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t s_[4];
};

constexpr std::uint64_t kLine = 64;         ///< check granularity
constexpr std::uint64_t kChainRegion = 4096; ///< closed-loop chain memory
constexpr Picoseconds kReadAfterWrite = 5 * edm::kMicrosecond;

std::vector<WorkloadSpec>
makeSpecs()
{
    std::vector<WorkloadSpec> specs;

    // Every workload: strict ledger, default charging, serial engine,
    // default train caps — valid across the planned deletions of the
    // parallel engine and legacy accounting.
    EdmConfig base;
    base.strict_grant_accounting = true;

    {
        WorkloadSpec w;
        w.name = "incast_fanin";
        w.cfg = base;
        w.cfg.num_nodes = 33;
        w.memory_nodes = {0};
        w.client_lo = 1;
        w.client_hi = 32;
        // Eight chains keep every client's X = 3 notification slots to
        // node 0 full. With four or six, the write and read medians sit
        // on the knee between ops that find a free slot and ops queued
        // behind in-flight reads, and move 5-15% from seed to seed.
        w.chains = 8;
        w.rounds = 160;
        w.read_bytes = 900; // scenarios/incast.edm sizes
        w.write_bytes = 700;
        w.read_frac = 2.0 / 3.0;
        specs.push_back(w);
    }
    {
        WorkloadSpec w;
        w.name = "uniform_small";
        w.cfg = base;
        w.cfg.num_nodes = 64;
        w.open_loop = true;
        w.load = 0.6;
        w.duration = 40 * edm::kMicrosecond;
        w.read_bytes = 64;
        w.write_bytes = 64;
        w.read_frac = 0.5;
        specs.push_back(w);
    }
    {
        WorkloadSpec w;
        w.name = "leafspine_tenants";
        w.cfg = base;
        w.cfg.num_nodes = 64;
        w.cfg.topology.tiers = edm::core::TopologySpec::Tiers::LeafSpine;
        w.cfg.topology.hosts_per_leaf = 16;
        w.cfg.topology.trunk_width = 4;
        w.cfg.topology.ecmp_seed = 7;
        w.cfg.fair_share = true;
        // Pools shaped like scenarios/tenant_isolation.edm.
        edm::core::TenantPoolSpec bulk0{"bulk0", 1, 27, 3.0, 0.0, 1.0, false};
        edm::core::TenantPoolSpec bulk1{"bulk1", 28, 55, 1.0, 0.0, 0.4, false};
        edm::core::TenantPoolSpec ls{"ls", 56, 63, 1.0, 0.2, 1.0, true};
        w.cfg.tenants.pools = {bulk0, bulk1, ls};
        w.memory_nodes = {0};
        w.client_lo = 1;
        w.client_hi = 63;
        w.chains = 2;
        w.rounds = 40;
        w.trials = 8;
        w.read_bytes = 900;
        w.write_bytes = 700;
        w.read_frac = 2.0 / 3.0;
        w.frame_hosts = {2, 33}; // one on node 0's leaf, one remote
        w.frames_per_host = 4;
        w.frame_interval = 250 * edm::kMicrosecond;
        w.frame_payload = 9000;
        specs.push_back(w);
    }
    return specs;
}

const std::vector<WorkloadSpec> &
specs()
{
    static const std::vector<WorkloadSpec> s = makeSpecs();
    return s;
}

void
appendPayload(Schedule &s, Rng &rng, Op &op)
{
    op.payload = static_cast<std::uint32_t>(s.payload.size());
    for (std::uint32_t i = 0; i < op.len; i += 8) {
        const std::uint64_t w = rng.next();
        for (std::uint32_t b = i; b < std::min(op.len, i + 8); ++b)
            s.payload.push_back(static_cast<std::uint8_t>(w >> (8 * (b - i))));
    }
}

/** Closed loop: per-chain private 4 KiB regions on node 0. */
void
generateChains(const WorkloadSpec &w, Rng &rng, Schedule &s)
{
    std::uint64_t region = 0;
    for (int c = w.client_lo; c <= w.client_hi; ++c) {
        for (int k = 0; k < w.chains; ++k, ++region) {
            Stream st;
            st.first = static_cast<std::uint32_t>(s.ops.size());
            for (int r = 0; r < w.rounds; ++r) {
                Op op;
                op.src = static_cast<std::uint16_t>(c);
                op.dst = 0;
                op.write = rng.uniform() >= w.read_frac;
                op.len = op.write ? w.write_bytes : w.read_bytes;
                const std::uint64_t slots = (kChainRegion - op.len) / 8 + 1;
                op.addr = region * kChainRegion + 8 * rng.below(slots);
                if (op.write)
                    appendPayload(s, rng, op);
                s.ops.push_back(op);
            }
            st.count = static_cast<std::uint32_t>(s.ops.size()) - st.first;
            s.streams.push_back(st);
        }
    }
    s.window[0] = region * kChainRegion;
}

/**
 * Open loop: Poisson arrivals per host at `load` of the uplink's block
 * slots. Each write takes a fresh 64 B slot on its destination; a read
 * targets a slot its source wrote there at least kReadAfterWrite
 * earlier (so the check can verify it), or an unwritten slot.
 */
void
generateOpenLoop(const WorkloadSpec &w, Rng &rng, Schedule &s)
{
    const std::size_t n = w.cfg.num_nodes;
    std::vector<std::uint64_t> next_slot(n, 0);

    // The isolated probe: node 0 reads an unwritten 64 B slot on node 1.
    Op probe;
    probe.src = 0;
    probe.dst = 1;
    probe.len = 64;
    probe.addr = kLine * next_slot[1]++;
    s.ops.push_back(probe);
    s.has_probe = true;

    // Uplink blocks per op (tests/test_fabric.cpp): a read sends a
    // 3-block RREQ and its response len/8 + 2 blocks; a write sends one
    // /N/ block and a len/8 + 3 block WREQ.
    const double read_blocks = 3.0 + (w.read_bytes + 7) / 8 + 2.0;
    const double write_blocks = 1.0 + (w.write_bytes + 7) / 8 + 3.0;
    const double mean_blocks = w.read_frac * read_blocks +
        (1.0 - w.read_frac) * write_blocks;
    const double gap_ps =
        mean_blocks * static_cast<double>(w.cfg.cycle) / w.load;

    struct Written
    {
        Picoseconds due;
        std::uint64_t addr;
    };
    for (std::size_t h = 0; h < n; ++h) {
        std::vector<std::vector<Written>> written(n);
        Stream st;
        st.first = static_cast<std::uint32_t>(s.ops.size());
        for (double t = rng.exponential(gap_ps);
             t < static_cast<double>(w.duration);
             t += rng.exponential(gap_ps)) {
            Op op;
            op.due = static_cast<Picoseconds>(t);
            op.src = static_cast<std::uint16_t>(h);
            op.dst = static_cast<std::uint16_t>((h + 1 + rng.below(n - 1)) % n);
            op.write = rng.uniform() >= w.read_frac;
            op.len = op.write ? w.write_bytes : w.read_bytes;
            auto &mine = written[op.dst];
            if (op.write) {
                op.addr = kLine * next_slot[op.dst]++;
                appendPayload(s, rng, op);
                mine.push_back({op.due, op.addr});
            } else {
                std::size_t ready = 0;
                while (ready < mine.size() &&
                       mine[ready].due + kReadAfterWrite <= op.due)
                    ++ready;
                op.addr = ready ? mine[rng.below(ready)].addr
                                : kLine * next_slot[op.dst]++;
            }
            s.ops.push_back(op);
        }
        st.count = static_cast<std::uint32_t>(s.ops.size()) - st.first;
        s.streams.push_back(st);
    }
    for (std::size_t d = 0; d < n; ++d)
        s.window[d] = kLine * next_slot[d];
}

/**
 * Expected memory contents, for checking every read whose bytes are
 * determined: per node a shadow copy plus, per 64 B line, the writes
 * in flight and the sequence number of the last write posted.
 */
struct Shadow
{
    std::vector<std::uint8_t> bytes;
    std::vector<std::uint32_t> pending;
    std::vector<std::uint64_t> last_post;
};

/** Drives one schedule through a fabric and checks its outputs. */
class Runner
{
  public:
    Runner(const WorkloadSpec &spec, const Schedule &sch,
           edm::Samples &ls_reads)
        : spec_(spec), sch_(sch), ls_reads_(ls_reads),
          ls_hi_(static_cast<std::uint16_t>(spec.cfg.num_nodes - 1)),
          read_seq_(sch.ops.size(), 0),
          checkable_(sch.ops.size(), 0), cursor_(sch.streams.size(), 0)
    {
        // Without a latency-sensitive pool, every host is one pool.
        for (const auto &pool : spec.cfg.tenants.pools)
            if (pool.latency_sensitive) {
                ls_lo_ = pool.host_lo;
                ls_hi_ = pool.host_hi;
            }
        shadow_.resize(sch.window.size());
        for (std::size_t d = 0; d < sch.window.size(); ++d) {
            const std::uint64_t lines = (sch.window[d] + kLine - 1) / kLine;
            shadow_[d].bytes.assign(lines * kLine, 0);
            shadow_[d].pending.assign(lines, 0);
            shadow_[d].last_post.assign(lines, 0);
        }
    }

    Runner(const Runner &) = delete;
    Runner &operator=(const Runner &) = delete;

    /** Post every op and drain the fabric (the timed region's body). */
    void
    drive(CycleFabric &fab, edm::Simulation &sim, SimResult &res,
          HostTimes &host)
    {
        fab_ = &fab;
        sim_ = &sim;
        res_ = &res;
        host_ = &host;
        Picoseconds base = 0;
        if (sch_.has_probe) {
            post(0);
            fab.run();
            const auto table = edm::analytic::fabricLatency(
                edm::analytic::Stack::Edm, true, spec_.cfg.costs);
            // Serialization as tests/test_fabric.cpp composes it: the
            // RREQ tail, one slot per traversal and the 64 B RRES tail.
            const Picoseconds serialization = (4 + 2 + 9) * spec_.cfg.cycle;
            res.probe_ref_ns = edm::toNs(
                table.total + serialization +
                fab.host(sch_.ops[0].dst).lastDramLatency());
            base = sim.now();
        }
        for (const FrameInject &f : sch_.frames)
            sim.events().schedule(base + f.at, [this, src = f.src] {
                fab_->injectFrame(src, sch_.frame_bytes);
                ++res_->frames_injected;
            });
        for (std::uint32_t s = 0; s < sch_.streams.size(); ++s) {
            const Stream &st = sch_.streams[s];
            if (st.count == 0)
                continue;
            if (spec_.open_loop)
                sim.events().schedule(base + sch_.ops[st.first].due,
                                      [this, s, base] { arrive(s, base); });
            else
                post(st.first);
        }
        fab.run();
    }

  private:
    void
    arrive(std::uint32_t s, Picoseconds base)
    {
        const Stream &st = sch_.streams[s];
        const std::uint32_t i = st.first + cursor_[s]++;
        post(i);
        if (cursor_[s] < st.count)
            sim_->events().schedule(base + sch_.ops[i + 1].due,
                                    [this, s, base] { arrive(s, base); });
    }

    /** Closed loop: the chain's next op once this one completes. */
    void
    next(std::uint32_t i)
    {
        if (spec_.open_loop || (sch_.has_probe && i == 0))
            return;
        // Streams are contiguous and sorted, so the chain continues at
        // i + 1 unless i closed its stream.
        const auto it = std::upper_bound(
            sch_.streams.begin(), sch_.streams.end(), i,
            [](std::uint32_t v, const Stream &st) { return v < st.first; });
        const Stream &st = *(it - 1);
        if (i + 1 < st.first + st.count)
            post(i + 1);
    }

    void
    post(std::uint32_t i)
    {
        const Op &op = sch_.ops[i];
        Shadow &sh = shadow_[op.dst];
        const std::uint64_t lo = op.addr / kLine;
        const std::uint64_t hi = (op.addr + op.len - 1) / kLine;
        const std::uint64_t seq = ++seq_;
        const auto &topo = fab_->topology();
        if (topo.leafOf(op.src) != topo.leafOf(op.dst))
            ++res_->cross_leaf_ops;
        ++res_->posted;
        if (op.write) {
            for (std::uint64_t l = lo; l <= hi; ++l) {
                ++sh.pending[l];
                sh.last_post[l] = seq;
            }
            std::vector<std::uint8_t> data(
                sch_.payload.begin() + op.payload,
                sch_.payload.begin() + op.payload + op.len);
            const auto t0 = Clock::now();
            fab_->write(op.src, op.dst, op.addr, std::move(data),
                        [this, i](Picoseconds) { onWrite(i); });
            host_->posts += secondsSince(t0);
        } else {
            bool clear = true;
            for (std::uint64_t l = lo; l <= hi; ++l)
                clear = clear && sh.pending[l] == 0;
            checkable_[i] = clear;
            read_seq_[i] = seq;
            const auto t0 = Clock::now();
            fab_->read(op.src, op.dst, op.addr, op.len,
                       [this, i](std::vector<std::uint8_t> d, Picoseconds lat,
                                 bool timed_out) {
                           onRead(i, d, lat, timed_out);
                       });
            host_->posts += secondsSince(t0);
        }
    }

    void
    onWrite(std::uint32_t i)
    {
        const Op &op = sch_.ops[i];
        Shadow &sh = shadow_[op.dst];
        std::memcpy(sh.bytes.data() + op.addr,
                    sch_.payload.data() + op.payload, op.len);
        for (std::uint64_t l = op.addr / kLine;
             l <= (op.addr + op.len - 1) / kLine; ++l)
            --sh.pending[l];
        ++res_->completed;
        res_->good_bytes += op.len;
        next(i);
    }

    void
    onRead(std::uint32_t i, const std::vector<std::uint8_t> &data,
           Picoseconds lat, bool timed_out)
    {
        const Op &op = sch_.ops[i];
        if (timed_out) {
            ++res_->failed;
            next(i);
            return;
        }
        ++res_->completed;
        res_->good_bytes += op.len;
        if (sch_.has_probe && i == 0)
            res_->probe_ns = edm::toNs(lat);
        if (op.src >= ls_lo_ && op.src <= ls_hi_)
            ls_reads_.add(edm::toNs(lat));

        // Determined only if no write to these lines was in flight at
        // post, and none was posted while the read was outstanding.
        const Shadow &sh = shadow_[op.dst];
        bool determined = checkable_[i] != 0;
        for (std::uint64_t l = op.addr / kLine;
             determined && l <= (op.addr + op.len - 1) / kLine; ++l)
            determined = sh.last_post[l] < read_seq_[i];
        if (!determined) {
            ++res_->reads_unverifiable;
        } else if (data.size() == op.len &&
                   std::memcmp(data.data(), sh.bytes.data() + op.addr,
                               op.len) == 0) {
            ++res_->reads_verified;
        } else {
            if (res_->read_mismatches++ == 0)
                std::fprintf(stderr,
                             "check: read %u (%u -> %u @0x%llx, %u B) "
                             "returned wrong bytes\n",
                             i, op.src, op.dst,
                             static_cast<unsigned long long>(op.addr),
                             op.len);
        }
        next(i);
    }

    const WorkloadSpec &spec_;
    const Schedule &sch_;
    edm::Samples &ls_reads_;
    std::uint16_t ls_lo_ = 0;
    std::uint16_t ls_hi_;
    std::vector<Shadow> shadow_;
    std::vector<std::uint64_t> read_seq_;
    std::vector<std::uint8_t> checkable_;
    std::vector<std::uint32_t> cursor_;
    std::uint64_t seq_ = 0;
    CycleFabric *fab_ = nullptr;
    edm::Simulation *sim_ = nullptr;
    SimResult *res_ = nullptr;
    HostTimes *host_ = nullptr;
};

} // namespace

const WorkloadSpec *
findWorkload(const std::string &name)
{
    for (const WorkloadSpec &w : specs())
        if (w.name == name)
            return &w;
    return nullptr;
}

std::string
workloadNames()
{
    std::string out;
    for (const WorkloadSpec &w : specs())
        out += (out.empty() ? "" : ", ") + w.name;
    return out;
}

namespace {

/** One trial's schedule, drawn from the repetition's generator. */
Schedule
generate(const WorkloadSpec &spec, Rng &rng)
{
    Schedule s;
    s.window.assign(spec.cfg.num_nodes, 0);
    if (spec.open_loop)
        generateOpenLoop(spec, rng, s);
    else
        generateChains(spec, rng, s);

    for (std::size_t j = 0; j < spec.frame_hosts.size(); ++j)
        for (int f = 0; f < spec.frames_per_host; ++f)
            s.frames.push_back(
                {spec.frame_interval * (f + 1) +
                     static_cast<Picoseconds>(j) * spec.frame_interval / 2,
                 spec.frame_hosts[j]});
    if (!s.frames.empty()) {
        edm::mac::Frame jumbo;
        jumbo.payload.assign(spec.frame_payload, 0xEE);
        s.frame_bytes = edm::mac::serialize(jumbo);
    }
    return s;
}

} // namespace

std::uint64_t
SimResult::digest() const
{
    char buf[2048];
    const int n = std::snprintf(
        buf, sizeof buf,
        "%llu %llu %llu %llu %llu %llu %llu %a %a %a %a %a %a %lld %llu "
        "%llu %llu %llu %llu %llu %llu %llu %llu %llu %llu %llu %llu %llu "
        "%llu %llu %llu %llu %a %a",
        (unsigned long long)posted, (unsigned long long)completed,
        (unsigned long long)failed, (unsigned long long)good_bytes,
        (unsigned long long)read_n, (unsigned long long)write_n,
        (unsigned long long)ls_read_n, read_p50_ns, read_p99_ns,
        write_p50_ns, write_p99_ns, ls_read_p99_ns, goodput_gbps,
        (long long)end_time, (unsigned long long)events,
        (unsigned long long)cross_leaf_ops,
        (unsigned long long)reads_verified,
        (unsigned long long)reads_unverifiable,
        (unsigned long long)read_mismatches,
        (unsigned long long)frames_injected,
        (unsigned long long)frames_received,
        (unsigned long long)mem_blocks_sent,
        (unsigned long long)notify_blocks,
        (unsigned long long)grants_parked,
        (unsigned long long)read_timeouts, (unsigned long long)id_stalls,
        (unsigned long long)grants, (unsigned long long)wasted_slots,
        (unsigned long long)grants_suppressed,
        (unsigned long long)ledger_left, (unsigned long long)peak_staging,
        (unsigned long long)warnings, probe_ns, probe_ref_ns);
    std::uint64_t h = 0xcbf29ce484222325ULL; // FNV-1a
    for (int i = 0; i < n; ++i) {
        h ^= static_cast<unsigned char>(buf[i]);
        h *= 0x100000001b3ULL;
    }
    return h;
}

RepResult
runRep(const WorkloadSpec &spec, std::uint64_t seed,
       const std::string &trace_path)
{
    RepResult rep;
    SimResult &res = rep.sim;
    HostTimes &host = rep.host;
    const std::uint64_t warn0 = edm::warnCount();

    std::unique_ptr<edm::trace::EventLog> log;
    EdmConfig cfg = spec.cfg;
    if (!trace_path.empty()) {
        log = std::make_unique<edm::trace::EventLog>();
        if (!log->openFile(trace_path)) {
            std::fprintf(stderr, "cannot open trace file %s\n",
                         trace_path.c_str());
            std::exit(2);
        }
        cfg.event_log = log.get();
    }

    Rng rng(seed);
    edm::Samples reads, writes, ls_reads;
    for (int trial = 0; trial < spec.trials; ++trial) {
        auto t0 = Clock::now();
        const Schedule sch = generate(spec, rng);
        Runner runner(spec, sch, ls_reads);
        host.setup_workload += secondsSince(t0);

        t0 = Clock::now();
        edm::Simulation sim(seed);
        CycleFabric fab(cfg, sim, spec.memory_nodes);
        host.setup_fabric += secondsSince(t0);

        t0 = Clock::now();
        runner.drive(fab, sim, res, host);
        const auto t1 = Clock::now();
        for (double v : fab.readLatency().raw())
            reads.add(v);
        for (double v : fab.writeLatency().raw())
            writes.add(v);
        host.summary += secondsSince(t1);
        host.timed += secondsSince(t0);

        res.end_time += fab.endTime();
        res.events += fab.eventsExecuted();
        for (std::size_t n = 0; n < cfg.num_nodes; ++n) {
            const auto &hs =
                fab.host(static_cast<edm::core::NodeId>(n)).stats();
            res.mem_blocks_sent += hs.mem_blocks_sent;
            res.notify_blocks += hs.notify_blocks_sent;
            res.grants_parked += hs.grants_parked;
            res.read_timeouts += hs.read_timeouts;
            res.id_stalls += hs.id_stalls;
            res.frames_received += hs.frames_received;
        }
        const auto acc = fab.grantAccounting();
        res.grants += fab.totalGrantsIssued();
        res.wasted_slots += acc.wasted_grant_slots;
        res.grants_suppressed += acc.ledger.grants_suppressed;
        res.ledger_left += fab.totalPendingLedgerEntries();
        res.peak_staging = std::max<std::uint64_t>(res.peak_staging,
                                                   fab.peakEgressStaging());
    }

    // Percentiles over the pooled trials, still inside the timed region.
    const auto t0 = Clock::now();
    res.read_n = reads.count();
    res.read_p50_ns = reads.percentile(50);
    res.read_p99_ns = reads.percentile(99);
    res.write_n = writes.count();
    res.write_p50_ns = writes.percentile(50);
    res.write_p99_ns = writes.percentile(99);
    res.ls_read_n = ls_reads.count();
    res.ls_read_p99_ns = ls_reads.percentile(99);
    const double summary = secondsSince(t0);
    host.summary += summary;
    host.timed += summary;

    if (log) {
        log->close();
        rep.trace_records = log->totalRecorded();
        rep.trace_dropped = log->dropped();
    }
    res.goodput_gbps = res.end_time > 0
        ? static_cast<double>(res.good_bytes) * 8.0 * 1000.0 /
            static_cast<double>(res.end_time)
        : 0.0;
    res.warnings = edm::warnCount() - warn0;
    return rep;
}

} // namespace perfbench
