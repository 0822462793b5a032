/**
 * @file
 * Functional cache-presence model for the real-system demonstration.
 *
 * The demo only needs to know whether a load hits the cache hierarchy
 * (no DRAM traffic) or misses (DRAM access), and to honour
 * clflushopt's invalidate semantics.  Aggressor rows are read-only
 * after initialization, so flushed lines are clean and flushing
 * produces no write-back traffic.
 *
 * The resident set is a flat open-addressing table (linear probing,
 * backward-shift deletion, so no tombstones build up): every load and
 * flush of the demo's loop is a probe over a few adjacent slots, with
 * no allocation once the table has grown to the working set.
 */

#ifndef ROWPRESS_SYS_CACHE_H
#define ROWPRESS_SYS_CACHE_H

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace rp::sys {

/** Presence-set cache model with clflushopt support. */
class CacheModel
{
  public:
    /** Load a line; returns true on hit, inserts on miss. */
    bool
    load(std::uint64_t line_addr)
    {
        if (line_addr == kEmpty) {
            const bool hit = emptyKeyResident_;
            emptyKeyResident_ = true;
            return hit;
        }
        std::size_t i = home(line_addr);
        for (; slots_[i] != kEmpty; i = next(i)) {
            if (slots_[i] == line_addr)
                return true;
        }
        if (2 * (used_ + 1) > slots_.size()) {
            grow();
            i = home(line_addr);
            while (slots_[i] != kEmpty)
                i = next(i);
        }
        slots_[i] = line_addr;
        ++used_;
        return false;
    }

    /** clflushopt: drop the line (clean lines write nothing back). */
    void
    clflush(std::uint64_t line_addr)
    {
        if (line_addr == kEmpty) {
            emptyKeyResident_ = false;
            return;
        }
        std::size_t hole = home(line_addr);
        for (; slots_[hole] != line_addr; hole = next(hole)) {
            if (slots_[hole] == kEmpty)
                return; // not resident
        }
        // Backward-shift deletion: pull every later entry of the probe
        // run whose home is not cyclically in (hole, j] into the hole,
        // so each remaining line stays reachable from its home slot.
        for (std::size_t j = next(hole); slots_[j] != kEmpty; j = next(j)) {
            const std::size_t h = home(slots_[j]);
            const bool stays = hole < j ? (hole < h && h <= j)
                                        : (hole < h || h <= j);
            if (!stays) {
                slots_[hole] = slots_[j];
                hole = j;
            }
        }
        slots_[hole] = kEmpty;
        --used_;
    }

    void
    clear()
    {
        std::fill(slots_.begin(), slots_.end(), kEmpty);
        used_ = 0;
        emptyKeyResident_ = false;
    }

    std::size_t
    residentLines() const
    {
        return used_ + (emptyKeyResident_ ? 1 : 0);
    }

    /** log2 of the slot count of a new (or cleared) table. */
    static constexpr int kInitialBits = 6;

    /**
     * Home slot of a line in a table of 2^@p bits slots: the top bits
     * of a multiplicative (Fibonacci) hash.  Public so tests can build
     * colliding probe chains.
     */
    static std::size_t
    homeSlot(std::uint64_t line_addr, int bits)
    {
        return std::size_t((line_addr * 0x9E3779B97F4A7C15ull) >>
                           (64 - bits));
    }

  private:
    /** Marks a free slot; a line with this address is kept aside. */
    static constexpr std::uint64_t kEmpty = ~std::uint64_t(0);

    std::size_t home(std::uint64_t line_addr) const
    {
        return homeSlot(line_addr, bits_);
    }

    std::size_t
    next(std::size_t i) const
    {
        return (i + 1) & (slots_.size() - 1);
    }

    /** Double the table (load factor stays at most 1/2). */
    void
    grow()
    {
        std::vector<std::uint64_t> old(slots_.size() * 2, kEmpty);
        old.swap(slots_);
        ++bits_;
        for (std::uint64_t line : old) {
            if (line == kEmpty)
                continue;
            std::size_t i = home(line);
            while (slots_[i] != kEmpty)
                i = next(i);
            slots_[i] = line;
        }
    }

    int bits_ = kInitialBits;
    std::vector<std::uint64_t> slots_ =
        std::vector<std::uint64_t>(std::size_t(1) << kInitialBits, kEmpty);
    std::size_t used_ = 0; ///< Occupied slots.
    bool emptyKeyResident_ = false;
};

} // namespace rp::sys

#endif // ROWPRESS_SYS_CACHE_H
