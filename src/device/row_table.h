/**
 * @file
 * Paged per-bank row table: dense per-row state for the device model.
 *
 * The activation path touches a handful of rows per command (the
 * aggressor and its +/-3 victims), millions of times per real-system
 * run.  A RowTable stores one record per (bank, row) in fixed-size
 * pages of consecutive rows, so a lookup is two indexed loads instead
 * of a hash and a bucket walk, and only the first touch of a page
 * allocates.  Each bank's page directory is allocated on the bank's
 * first touch, so a chip model that exercises a few rows of one bank
 * costs a few pages, not the whole array.
 *
 * Untouched rows read as absent (find() returns nullptr) without
 * allocating; at() creates the page holding the row with every record
 * value-initialized.  reset() returns every touched page to T{} and
 * keeps it for reuse, costing O(touched pages).
 */

#ifndef ROWPRESS_DEVICE_ROW_TABLE_H
#define ROWPRESS_DEVICE_ROW_TABLE_H

#include <array>
#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

#include "common/logging.h"

namespace rp::device {

/** Dense (bank, row) -> T table with lazily allocated pages. */
template <typename T>
class RowTable
{
  public:
    static constexpr int kPageBits = 6;
    static constexpr int kPageRows = 1 << kPageBits;

    RowTable(int banks, int rows)
        : rows_(rows), dirs_(std::size_t(banks))
    {
    }

    /** The row's record; allocates its page on first touch. */
    T &
    at(int bank, int row)
    {
        if (T *rec = find(bank, row))
            return *rec;
        return touch(bank, row);
    }

    /** The row's record, or nullptr if its page was never touched. */
    const T *
    find(int bank, int row) const
    {
        if (!inRange(bank, row))
            return nullptr;
        const auto &dir = dirs_[std::size_t(bank)];
        if (dir.empty())
            return nullptr;
        const Page *page = dir[std::size_t(row >> kPageBits)];
        return page ? &page->rows[std::size_t(row & (kPageRows - 1))]
                    : nullptr;
    }

    T *
    find(int bank, int row)
    {
        return const_cast<T *>(std::as_const(*this).find(bank, row));
    }

    /**
     * Call @p f(bank, row, record) for every row of every touched page,
     * in page-allocation order (callers needing an order sort).
     */
    template <typename F>
    void
    forEach(F &&f)
    {
        for (const auto &page : live_) {
            for (int i = 0; i < kPageRows && page->firstRow + i < rows_; ++i)
                f(page->bank, page->firstRow + i, page->rows[std::size_t(i)]);
        }
    }

    template <typename F>
    void
    forEach(F &&f) const
    {
        const_cast<RowTable *>(this)->forEach(
            [&f](int bank, int row, const T &rec) { f(bank, row, rec); });
    }

    /** Pages currently allocated to rows (the table's footprint). */
    std::size_t touchedPages() const { return live_.size(); }

    /** Return every touched row to T{}, keeping the pages for reuse. */
    void
    reset()
    {
        for (auto &page : live_) {
            dirs_[std::size_t(page->bank)]
                 [std::size_t(page->firstRow >> kPageBits)] = nullptr;
            page->rows.fill(T{});
            spare_.push_back(std::move(page));
        }
        live_.clear();
    }

  private:
    struct Page
    {
        int bank = 0;
        int firstRow = 0;
        std::array<T, kPageRows> rows{};
    };

    bool
    inRange(int bank, int row) const
    {
        return unsigned(bank) < dirs_.size() &&
               unsigned(row) < unsigned(rows_);
    }

    /** at()'s slow path: give the row's page (and directory) storage. */
    [[gnu::noinline]] T &
    touch(int bank, int row)
    {
        if (!inRange(bank, row))
            panic("RowTable: (bank %d, row %d) out of range", bank, row);
        auto &dir = dirs_[std::size_t(bank)];
        if (dir.empty())
            dir.resize(std::size_t((rows_ + kPageRows - 1) >> kPageBits));
        if (spare_.empty()) {
            live_.push_back(std::make_unique<Page>());
        } else {
            live_.push_back(std::move(spare_.back()));
            spare_.pop_back();
        }
        Page *page = live_.back().get();
        page->bank = bank;
        page->firstRow = row & ~(kPageRows - 1);
        dir[std::size_t(row >> kPageBits)] = page;
        return page->rows[std::size_t(row & (kPageRows - 1))];
    }

    int rows_;
    /** Per bank: page pointers by row >> kPageBits (empty: untouched). */
    std::vector<std::vector<Page *>> dirs_;
    std::vector<std::unique_ptr<Page>> live_;  ///< Touched pages.
    std::vector<std::unique_ptr<Page>> spare_; ///< Reset pages to reuse.
};

} // namespace rp::device

#endif // ROWPRESS_DEVICE_ROW_TABLE_H
