#include "calibrate.hpp"

#include <chrono>
#include <cstdint>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

namespace perfbench {

namespace {

constexpr std::uint32_t kEvents = 1u << 16;   ///< pending at any time
constexpr std::uint32_t kStateWords = 1u << 19; ///< 4 MiB of state
constexpr int kPops = 750000;

/** Keeps the kernel's result observable so it is not optimized away. */
volatile std::uint64_t g_sink;

std::uint64_t
xorshift(std::uint64_t &x)
{
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
}

} // namespace

double
calibrationSeconds()
{
    using Clock = std::chrono::steady_clock;
    using Event = std::pair<std::uint64_t, std::uint32_t>; // (time, id)
    const auto t0 = Clock::now();

    std::priority_queue<Event, std::vector<Event>, std::greater<>> queue;
    std::vector<std::uint64_t> state(kStateWords, 0);
    std::uint64_t x = 12345;
    for (std::uint32_t id = 0; id < kEvents; ++id)
        queue.push({xorshift(x) % 100000, id});
    for (int i = 0; i < kPops; ++i) {
        const Event e = queue.top();
        queue.pop();
        const std::uint64_t r = xorshift(x);
        const std::uint32_t k =
            (e.second * 2654435761u + static_cast<std::uint32_t>(r)) &
            (kStateWords - 1);
        state[k] += e.first;
        if (state[k] & 1)
            state[(k * 7) & (kStateWords - 1)] ^= r;
        queue.push({e.first + 1 + r % 1000, e.second});
    }
    g_sink = state[5];
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

} // namespace perfbench
