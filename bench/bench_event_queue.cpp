/**
 * @file
 * Event-queue microbenchmark: the calendar-ring engine (64 ps buckets
 * over an indexed 4-ary overflow heap) vs the original std::function +
 * std::unordered_set lazy-deletion heap (kept here verbatim as
 * LegacyEventQueue for an honest baseline).
 *
 * Workloads, 1M events each:
 *   fire-only    — schedule everything, then drain. The times span
 *                  2^40 ps, far past the ring, so this row measures the
 *                  overflow heap and the heap-to-ring migration.
 *   mixed        — schedule / cancel / fire interleaved (the retry-timer
 *                  pattern that dominates protocol models).
 *   timer-wheel  — every fired event schedules a successor; 25% of live
 *                  timers are rescheduled mid-flight (new engine) or
 *                  cancel+re-add (legacy, which has no reschedule).
 *
 * Run:   ./build/bench_event_queue [events] [--json <path>]
 */

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <queue>
#include <type_traits>
#include <unordered_set>
#include <vector>

#include "common/random.hpp"
#include "sim/event_queue.hpp"

#include "bench_util.hpp"

namespace {

using edm::EventQueue;
using edm::Picoseconds;
using edm::Rng;

/** The seed repository's event queue, unchanged, for comparison. */
class LegacyEventQueue
{
  public:
    using EventId = std::uint64_t;
    using Callback = std::function<void()>;

    Picoseconds now() const { return now_; }

    EventId
    schedule(Picoseconds when, Callback cb)
    {
        const EventId id = next_id_++;
        heap_.push(Entry{when, next_seq_++, id, std::move(cb)});
        pending_ids_.insert(id);
        return id;
    }

    bool cancel(EventId id) { return pending_ids_.erase(id) > 0; }

    bool empty() const { return pending_ids_.empty(); }

    bool
    step()
    {
        while (!heap_.empty()) {
            const Entry &top = heap_.top();
            auto it = pending_ids_.find(top.id);
            if (it == pending_ids_.end()) {
                heap_.pop();
                continue;
            }
            Entry entry = std::move(const_cast<Entry &>(top));
            heap_.pop();
            pending_ids_.erase(it);
            now_ = entry.when;
            entry.cb();
            return true;
        }
        return false;
    }

    std::uint64_t
    run()
    {
        std::uint64_t executed = 0;
        while (step())
            ++executed;
        return executed;
    }

  private:
    struct Entry
    {
        Picoseconds when;
        std::uint64_t seq;
        EventId id;
        Callback cb;

        bool
        operator>(const Entry &o) const
        {
            return when != o.when ? when > o.when : seq > o.seq;
        }
    };

    std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap_;
    std::unordered_set<EventId> pending_ids_;
    Picoseconds now_ = 0;
    std::uint64_t next_seq_ = 0;
    EventId next_id_ = 1;
};

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/** schedule N, drain N. */
template <typename Q>
double
fireOnly(std::uint64_t n)
{
    Q q;
    Rng rng(1);
    std::uint64_t fired = 0;
    const auto t0 = std::chrono::steady_clock::now();
    for (std::uint64_t i = 0; i < n; ++i)
        q.schedule(
            static_cast<Picoseconds>(rng.uniformInt(std::uint64_t{1}
                                                    << 40)),
            [&fired] { ++fired; });
    q.run();
    const double s = secondsSince(t0);
    if (fired != n)
        std::abort();
    return s;
}

/** Interleaved schedule / cancel / drain-in-batches. */
template <typename Q>
double
mixed(std::uint64_t n)
{
    Q q;
    Rng rng(2);
    std::vector<typename Q::EventId> live;
    std::uint64_t fired = 0;
    Picoseconds base = 0;
    const auto t0 = std::chrono::steady_clock::now();
    for (std::uint64_t i = 0; i < n; ++i) {
        const auto when =
            base + static_cast<Picoseconds>(rng.uniformInt(
                       std::uint64_t{1} << 20));
        live.push_back(q.schedule(when, [&fired] { ++fired; }));
        const double roll = rng.uniform();
        if (roll < 0.30 && !live.empty()) {
            const std::size_t pick = rng.uniformInt(live.size());
            q.cancel(live[pick]);
            live[pick] = live.back();
            live.pop_back();
        } else if (roll < 0.40) {
            // Drain a burst; future schedules stay >= now().
            for (int k = 0; k < 16; ++k)
                q.step();
            base = q.now();
        }
    }
    q.run();
    const double s = secondsSince(t0);
    (void)fired;
    return s;
}

/** Self-perpetuating timers, with mid-flight deadline pushes. */
template <typename Q>
double
timerWheel(std::uint64_t n)
{
    Q q;
    Rng rng(3);
    std::uint64_t fired = 0;
    std::vector<typename Q::EventId> timers;
    constexpr int kConcurrent = 1024;

    std::function<void()> arm = [&] {
        ++fired;
        if (fired + kConcurrent <= n)
            timers.push_back(q.schedule(
                q.now() + 1 +
                    static_cast<Picoseconds>(
                        rng.uniformInt(std::uint64_t{1} << 16)),
                arm));
    };
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < kConcurrent; ++i)
        timers.push_back(q.schedule(
            static_cast<Picoseconds>(rng.uniformInt(std::uint64_t{1}
                                                    << 16)),
            arm));
    std::uint64_t steps = 0;
    while (!q.empty() && fired < n) {
        q.step();
        // Push out a random live timer every few firings — the retry
        // pattern. The new engine reschedules in place; the legacy
        // queue must cancel + schedule a tombstone-producing duplicate.
        if (++steps % 4 == 0 && !timers.empty()) {
            const std::size_t pick = rng.uniformInt(timers.size());
            const auto to = q.now() + 1 +
                static_cast<Picoseconds>(
                    rng.uniformInt(std::uint64_t{1} << 16));
            // Compact fired (stale) ids out so picks keep landing on
            // live timers and the reschedule path is actually hot.
            if constexpr (std::is_same_v<Q, EventQueue>) {
                if (!q.reschedule(timers[pick], to)) {
                    timers[pick] = timers.back();
                    timers.pop_back();
                }
            } else {
                if (q.cancel(timers[pick])) {
                    timers[pick] = q.schedule(to, arm);
                } else {
                    timers[pick] = timers.back();
                    timers.pop_back();
                }
            }
        }
    }
    return secondsSince(t0);
}

struct Row
{
    const char *name;
    double legacy_s;
    double new_s;
};

} // namespace

int
main(int argc, char **argv)
{
    std::uint64_t n = 1'000'000;
    if (argc > 1 && argv[1][0] != '-') {
        n = std::strtoull(argv[1], nullptr, 10);
        if (n == 0) {
            std::fprintf(stderr, "usage: %s [events>0] [--json <path>]\n",
                         argv[0]);
            return 2;
        }
    }
    edm::bench::BenchJson json(
        "event_queue", edm::bench::BenchJson::pathFromArgs(argc, argv));
    std::printf("=== event queue microbenchmark, %llu events ===\n\n",
                static_cast<unsigned long long>(n));

    // Warm-up pass so both engines see hot caches / faulted-in heaps.
    fireOnly<EventQueue>(n / 10);
    fireOnly<LegacyEventQueue>(n / 10);

    Row rows[] = {
        {"fire-only", fireOnly<LegacyEventQueue>(n), fireOnly<EventQueue>(n)},
        {"mixed", mixed<LegacyEventQueue>(n), mixed<EventQueue>(n)},
        {"timer-wheel", timerWheel<LegacyEventQueue>(n),
         timerWheel<EventQueue>(n)},
    };

    std::printf("  %-12s %14s %14s %9s\n", "workload", "legacy Mev/s",
                "ring Mev/s", "speedup");
    double geo = 1;
    for (const Row &r : rows) {
        const double mn = static_cast<double>(n) / 1e6;
        std::printf("  %-12s %14.2f %14.2f %8.2fx\n", r.name,
                    mn / r.legacy_s, mn / r.new_s, r.legacy_s / r.new_s);
        json.record(r.name, "legacy",
                    {{"events_per_sec", static_cast<double>(n) / r.legacy_s},
                     {"ns_per_event", r.legacy_s / static_cast<double>(n) *
                                          1e9}});
        json.record(r.name, "ring+heap",
                    {{"events_per_sec", static_cast<double>(n) / r.new_s},
                     {"ns_per_event",
                      r.new_s / static_cast<double>(n) * 1e9},
                     {"speedup", r.legacy_s / r.new_s}});
        geo *= r.legacy_s / r.new_s;
    }
    std::printf("\n  geometric-mean speedup: %.2fx (target >= 1.5x)\n",
                std::pow(geo, 1.0 / 3.0));
    return 0;
}
