/**
 * @file
 * Typed intrusive doubly-linked list.
 *
 * Its one remaining user is the switch's circuit staging
 * (SwitchStack::Port::staged): N + 1 per-ingress queues per egress
 * port whose nodes share one per-port ObjectPool, with O(1) push/pop
 * at both ends and stamp-ordered mid-list insertion. An intrusive list
 * gives that with zero per-element allocation — the links live inside
 * the node itself — and lets the sparse queues share storage instead
 * of each holding its own buffer. The PHY mux queues and frame backlogs,
 * which are dense, use common::Ring instead.
 *
 * Usage: give the node type `T *prev` / `T *next` members (their values
 * are list-owned while the node is linked) and never link one node into
 * two lists at once.
 */

#ifndef EDM_HW_INTRUSIVE_LIST_HPP
#define EDM_HW_INTRUSIVE_LIST_HPP

#include <cstddef>
#include <utility>

#include "common/logging.hpp"

namespace edm {
namespace hw {

/**
 * Doubly-linked list threaded through @p T's `prev`/`next` pointers.
 * The list never owns node storage — callers pair it with a pool.
 */
template <typename T>
class IntrusiveList
{
  public:
    IntrusiveList() = default;

    IntrusiveList(const IntrusiveList &) = delete;
    IntrusiveList &operator=(const IntrusiveList &) = delete;

    IntrusiveList(IntrusiveList &&o) noexcept
        : head_(o.head_), tail_(o.tail_), size_(o.size_)
    {
        o.head_ = o.tail_ = nullptr;
        o.size_ = 0;
    }

    IntrusiveList &
    operator=(IntrusiveList &&o) noexcept
    {
        if (this == &o)
            return *this;
        head_ = o.head_;
        tail_ = o.tail_;
        size_ = o.size_;
        o.head_ = o.tail_ = nullptr;
        o.size_ = 0;
        return *this;
    }

    bool empty() const { return head_ == nullptr; }
    std::size_t size() const { return size_; }

    T *front() { return head_; }
    const T *front() const { return head_; }
    T *back() { return tail_; }
    const T *back() const { return tail_; }

    void
    push_front(T *node)
    {
        node->prev = nullptr;
        node->next = head_;
        if (head_)
            head_->prev = node;
        else
            tail_ = node;
        head_ = node;
        ++size_;
    }

    void
    push_back(T *node)
    {
        node->prev = tail_;
        node->next = nullptr;
        if (tail_)
            tail_->next = node;
        else
            head_ = node;
        tail_ = node;
        ++size_;
    }

    /** Link @p node immediately before @p pos (nullptr = push_back). */
    void
    insert_before(T *pos, T *node)
    {
        if (pos == nullptr) {
            push_back(node);
            return;
        }
        node->next = pos;
        node->prev = pos->prev;
        if (pos->prev)
            pos->prev->next = node;
        else
            head_ = node;
        pos->prev = node;
        ++size_;
    }

    /** Unlink @p node (which must be linked here). */
    void
    erase(T *node)
    {
        EDM_ASSERT(size_ > 0, "erase from an empty intrusive list");
        if (node->prev)
            node->prev->next = node->next;
        else
            head_ = node->next;
        if (node->next)
            node->next->prev = node->prev;
        else
            tail_ = node->prev;
        node->prev = node->next = nullptr;
        --size_;
    }

    /** Unlink and return the head (must be non-empty). */
    T *
    pop_front()
    {
        T *node = head_;
        EDM_ASSERT(node != nullptr, "pop_front on an empty list");
        erase(node);
        return node;
    }

    /** Unlink and return the tail (must be non-empty). */
    T *
    pop_back()
    {
        T *node = tail_;
        EDM_ASSERT(node != nullptr, "pop_back on an empty list");
        erase(node);
        return node;
    }

    /** Forget every node (callers release storage via their pool). */
    void
    clear()
    {
        head_ = tail_ = nullptr;
        size_ = 0;
    }

    // Minimal forward iteration so range-for works.
    struct iterator
    {
        T *node;
        T &operator*() const { return *node; }
        T *operator->() const { return node; }
        iterator &
        operator++()
        {
            node = node->next;
            return *this;
        }
        bool operator!=(const iterator &o) const { return node != o.node; }
        bool operator==(const iterator &o) const { return node == o.node; }
    };

    iterator begin() { return iterator{head_}; }
    iterator end() { return iterator{nullptr}; }

    struct const_iterator
    {
        const T *node;
        const T &operator*() const { return *node; }
        const T *operator->() const { return node; }
        const_iterator &
        operator++()
        {
            node = node->next;
            return *this;
        }
        bool
        operator!=(const const_iterator &o) const
        {
            return node != o.node;
        }
        bool
        operator==(const const_iterator &o) const
        {
            return node == o.node;
        }
    };

    const_iterator begin() const { return const_iterator{head_}; }
    const_iterator end() const { return const_iterator{nullptr}; }

  private:
    T *head_ = nullptr;
    T *tail_ = nullptr;
    std::size_t size_ = 0;
};

} // namespace hw
} // namespace edm

#endif // EDM_HW_INTRUSIVE_LIST_HPP
