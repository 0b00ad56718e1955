/**
 * @file
 * Per-layer counts and simulated stage spans derived from a streamed
 * event-log file.
 */

#ifndef PERFBENCH_TRACE_STATS_HPP
#define PERFBENCH_TRACE_STATS_HPP

#include <cstdint>
#include <string>

#include "common/stats.hpp"

namespace perfbench {

struct TraceStats
{
    std::uint64_t records = 0;
    std::uint64_t grants_issued = 0;
    std::uint64_t mem_trains = 0;
    std::uint64_t frame_trains = 0;
    std::uint64_t train_blocks = 0;  ///< blocks emitted in trains
    std::uint64_t trimmed_blocks = 0;
    std::uint64_t preempts = 0;
    std::uint64_t frames_flooded = 0;
    std::uint64_t deferrals = 0;
    std::uint64_t bypasses = 0;
    std::uint64_t share_updates = 0;
    std::uint64_t tier_charges = 0;
    /** LedgerOpen -> first GrantIssued of the same demand (ns). */
    edm::Samples grant_wait_ns;
    /** First GrantIssued -> LedgerRetire of the same demand (ns). */
    edm::Samples transfer_ns;
};

/** Read every record of @p path; false if it cannot be opened. */
bool readTraceStats(const std::string &path, TraceStats &out);

} // namespace perfbench

#endif // PERFBENCH_TRACE_STATS_HPP
