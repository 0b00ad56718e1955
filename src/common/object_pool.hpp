/**
 * @file
 * Fixed-slab object pool for hot-path node storage.
 *
 * The switch's circuit staging (SwitchStack::Port::staged_pool, its
 * one remaining user) churns small queue nodes at line rate. Allocating
 * them individually puts an allocator round trip on every staged 66-bit
 * block; this pool instead carves nodes out of fixed-size slabs and
 * recycles them through an in-place free list, so steady-state
 * acquire/release never touches the heap. Slabs are only ever added
 * (a high-water-mark design, like hardware buffer memory): the pool's
 * footprint is the peak working set, and nothing is freed until the
 * pool dies.
 *
 * T must be trivially destructible — nodes may still be live (queued)
 * when the owning structure is torn down, and the pool reclaims their
 * storage wholesale.
 */

#ifndef EDM_COMMON_OBJECT_POOL_HPP
#define EDM_COMMON_OBJECT_POOL_HPP

#include <cstddef>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

namespace edm {
namespace common {

/**
 * Slab allocator for objects of type @p T.
 *
 * @tparam T node type; must be trivially destructible
 * @tparam SlabObjects objects carved from each slab allocation
 */
template <typename T, std::size_t SlabObjects = 64>
class ObjectPool
{
    static_assert(std::is_trivially_destructible_v<T>,
                  "pooled nodes may be reclaimed without destruction");
    static_assert(SlabObjects > 0, "slabs must hold at least one object");

  public:
    ObjectPool() = default;

    ObjectPool(const ObjectPool &) = delete;
    ObjectPool &operator=(const ObjectPool &) = delete;

    /** Construct an object from pooled storage. */
    template <typename... Args>
    T *
    acquire(Args &&...args)
    {
        if (free_ == nullptr)
            grow();
        Slot *slot = free_;
        free_ = slot->next_free;
        ++live_;
        return ::new (static_cast<void *>(slot->storage))
            T(std::forward<Args>(args)...);
    }

    /** Return an object's storage to the free list. */
    void
    release(T *obj)
    {
        // Trivially destructible: reusing the storage is the teardown.
        Slot *slot = reinterpret_cast<Slot *>(obj);
        slot->next_free = free_;
        free_ = slot;
        --live_;
    }

    /** Objects currently acquired and not yet released. */
    std::size_t live() const { return live_; }

    /** Total objects of backing storage allocated so far. */
    std::size_t capacity() const { return slabs_.size() * SlabObjects; }

  private:
    union Slot
    {
        Slot *next_free;
        alignas(T) unsigned char storage[sizeof(T)];
    };

    void
    grow()
    {
        slabs_.push_back(std::make_unique<Slot[]>(SlabObjects));
        Slot *slab = slabs_.back().get();
        for (std::size_t i = SlabObjects; i-- > 0;) {
            slab[i].next_free = free_;
            free_ = &slab[i];
        }
    }

    std::vector<std::unique_ptr<Slot[]>> slabs_;
    Slot *free_ = nullptr;
    std::size_t live_ = 0;
};

} // namespace common
} // namespace edm

#endif // EDM_COMMON_OBJECT_POOL_HPP
