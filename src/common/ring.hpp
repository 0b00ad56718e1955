/**
 * @file
 * Growable power-of-two ring buffer for hot-path block queues.
 *
 * The PHY mux queues and the frame backlogs see one push and one pop
 * per 66-bit block, scans over the head run (block trains) and, for the
 * availability-ordered memory queue, short ordered inserts near either
 * end. A contiguous ring serves all of that with index arithmetic
 * instead of pointer chasing: the head scan walks adjacent entries, a
 * run leaves with one pop_front(n), and insert() shifts whichever side
 * of the insertion point is shorter.
 *
 * Storage is allocated on the first push (an idle queue costs nothing)
 * and only ever grows, doubling, so capacity follows the queue's
 * high-water mark like hardware buffer RAM.
 */

#ifndef EDM_COMMON_RING_HPP
#define EDM_COMMON_RING_HPP

#include <cstddef>
#include <memory>
#include <type_traits>
#include <utility>

#include "common/logging.hpp"

namespace edm {
namespace common {

/**
 * Double-ended queue of @p T in one contiguous power-of-two buffer.
 *
 * @tparam T element type; copied by value on every shift, so keep it
 *           small and trivially copyable
 */
template <typename T>
class Ring
{
    static_assert(std::is_trivially_copyable_v<T>,
                  "ring entries are shifted by plain copies");

  public:
    /** Capacity of the first allocation. */
    static constexpr std::size_t kMinCapacity = 8;

    Ring() = default;

    // Moves are written out: a defaulted one would leave the source with
    // its old size and capacity but no buffer behind them.
    Ring(Ring &&o) noexcept
        : buf_(std::move(o.buf_)), cap_(o.cap_), head_(o.head_),
          size_(o.size_)
    {
        o.cap_ = o.head_ = o.size_ = 0;
    }

    Ring &
    operator=(Ring &&o) noexcept
    {
        if (this != &o) {
            buf_ = std::move(o.buf_);
            cap_ = o.cap_;
            head_ = o.head_;
            size_ = o.size_;
            o.cap_ = o.head_ = o.size_ = 0;
        }
        return *this;
    }

    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }
    std::size_t capacity() const { return cap_; }

    /** Element @p i counted from the head. */
    const T &operator[](std::size_t i) const { return buf_[slot(i)]; }

    const T &front() const { return buf_[head_]; }
    const T &back() const { return (*this)[size_ - 1]; }

    void
    push_back(const T &v)
    {
        if (size_ == cap_)
            grow();
        buf_[slot(size_)] = v;
        ++size_;
    }

    void
    push_front(const T &v)
    {
        if (size_ == cap_)
            grow();
        head_ = (head_ - 1) & (cap_ - 1);
        buf_[head_] = v;
        ++size_;
    }

    /** Append @p count elements in order. */
    void
    append(const T *vs, std::size_t count)
    {
        for (std::size_t i = 0; i < count; ++i)
            push_back(vs[i]);
    }

    /** Drop the @p n head elements. */
    void
    pop_front(std::size_t n = 1)
    {
        EDM_ASSERT(n <= size_, "pop_front past the end of a ring");
        size_ -= n;
        head_ = (head_ + n) & (cap_ - 1);
    }

    /**
     * Insert @p v before element @p i (i == size() appends), shifting
     * the shorter side of the ring by one slot.
     */
    void
    insert(std::size_t i, const T &v)
    {
        EDM_ASSERT(i <= size_, "ring insert past the end");
        if (size_ == cap_)
            grow();
        if (i < size_ - i) {
            head_ = (head_ - 1) & (cap_ - 1);
            for (std::size_t k = 0; k < i; ++k)
                buf_[slot(k)] = buf_[slot(k + 1)];
        } else {
            for (std::size_t k = size_; k > i; --k)
                buf_[slot(k)] = buf_[slot(k - 1)];
        }
        buf_[slot(i)] = v;
        ++size_;
    }

  private:
    std::size_t
    slot(std::size_t i) const
    {
        return (head_ + i) & (cap_ - 1);
    }

    /** Double the buffer, unwrapping the contents to start at slot 0. */
    void
    grow()
    {
        const std::size_t cap = cap_ == 0 ? kMinCapacity : 2 * cap_;
        auto bigger = std::make_unique<T[]>(cap);
        for (std::size_t i = 0; i < size_; ++i)
            bigger[i] = (*this)[i];
        buf_ = std::move(bigger);
        cap_ = cap;
        head_ = 0;
    }

    std::unique_ptr<T[]> buf_; ///< null until the first push
    std::size_t cap_ = 0;      ///< 0, or a power of two
    std::size_t head_ = 0;
    std::size_t size_ = 0;
};

} // namespace common
} // namespace edm

#endif // EDM_COMMON_RING_HPP
