#include "trace_stats.hpp"

#include <unordered_map>

#include "trace/event_log.hpp"

namespace perfbench {

namespace {

using edm::trace::Detail;
using edm::trace::EventType;
using edm::trace::Record;

/** A demand's identity: owning shard plus its (src, dst, id, dir) key. */
std::uint64_t
demandKey(const Record &r)
{
    return (std::uint64_t{r.sw} << 48) | (std::uint64_t{r.src} << 32) |
        (std::uint64_t{r.dst} << 16) | (std::uint64_t{r.id} << 1) |
        (r.response() ? 1u : 0u);
}

struct Span
{
    edm::Picoseconds opened = 0;
    edm::Picoseconds first_grant = -1;
};

} // namespace

bool
readTraceStats(const std::string &path, TraceStats &out)
{
    edm::trace::LogReader reader;
    if (!reader.open(path))
        return false;
    std::unordered_map<std::uint64_t, Span> live;
    Record r;
    while (reader.next(r)) {
        ++out.records;
        switch (r.eventType()) {
        case EventType::LedgerOpen:
            live[demandKey(r)] = Span{r.at, -1};
            break;
        case EventType::GrantIssued: {
            ++out.grants_issued;
            auto it = live.find(demandKey(r));
            if (it != live.end() && it->second.first_grant < 0) {
                it->second.first_grant = r.at;
                out.grant_wait_ns.add(edm::toNs(r.at - it->second.opened));
            }
            break;
        }
        case EventType::LedgerRetire: {
            auto it = live.find(demandKey(r));
            if (it != live.end()) {
                if (it->second.first_grant >= 0)
                    out.transfer_ns.add(
                        edm::toNs(r.at - it->second.first_grant));
                live.erase(it);
            }
            break;
        }
        case EventType::LedgerAbort:
            live.erase(demandKey(r));
            break;
        case EventType::TrainEmit:
            if (r.detailCode() == Detail::FrameTrain)
                ++out.frame_trains;
            else
                ++out.mem_trains;
            out.train_blocks += r.arg;
            break;
        case EventType::TrainTrim:
            out.trimmed_blocks += r.arg;
            break;
        case EventType::PreemptEnter:
            ++out.preempts;
            break;
        case EventType::FrameFlood:
            ++out.frames_flooded;
            break;
        case EventType::GrantDeferredByLimit:
            ++out.deferrals;
            break;
        case EventType::PriorityBypass:
            ++out.bypasses;
            break;
        case EventType::PoolShareComputed:
            ++out.share_updates;
            break;
        case EventType::TierCharge:
            ++out.tier_charges;
            break;
        default:
            break;
        }
    }
    return true;
}

} // namespace perfbench
