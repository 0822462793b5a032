#include "mitigation/trr.h"

#include <algorithm>

namespace rp::mitigation {

Trr::Trr(int banks) : Trr(banks, Config{}) {}

Trr::Trr(int banks, Config cfg) : cfg_(cfg)
{
    banks_.resize(std::size_t(banks));
    for (auto &bank : banks_) {
        bank.table.resize(std::size_t(cfg_.tableEntries));
        // The sampler briefly holds one row past its size; reserving
        // it keeps the per-ACT hook free of allocation.
        bank.recent.reserve(std::size_t(cfg_.recentRows) + 1);
    }
}

void
Trr::onActivate(int flat_bank, int row, std::vector<int> &victims)
{
    (void)victims;
    Bank &bank = banks_[std::size_t(flat_bank)];

    // Recency sampler: remember the latest distinct rows.
    auto &recent = bank.recent;
    if (recent.empty() || recent.front() != row) {
        recent.insert(recent.begin(), row);
        if (int(recent.size()) > cfg_.recentRows)
            recent.resize(std::size_t(cfg_.recentRows));
    }

    // Misra-Gries frequent-item summary.
    for (auto &e : bank.table) {
        if (e.row == row) {
            ++e.count;
            return;
        }
    }
    for (auto &e : bank.table) {
        if (e.row < 0 || e.count == 0) {
            e.row = row;
            e.count = 1;
            return;
        }
    }
    for (auto &e : bank.table)
        --e.count;
}

void
Trr::appendNeighbors(int row, std::vector<int> &out) const
{
    for (int d = 1; d <= cfg_.neighborhood; ++d) {
        out.push_back(row - d);
        out.push_back(row + d);
    }
}

void
Trr::onRefresh(int flat_bank, std::vector<int> &victims)
{
    Bank &bank = banks_[std::size_t(flat_bank)];
    const std::size_t first = victims.size();

    for (int row : bank.recent)
        appendNeighbors(row, victims);
    bank.recent.clear();

    auto top = std::max_element(
        bank.table.begin(), bank.table.end(),
        [](const Entry &a, const Entry &b) { return a.count < b.count; });
    if (top != bank.table.end() && top->row >= 0 &&
        top->count >= cfg_.actThreshold) {
        appendNeighbors(top->row, victims);
        top->row = -1;
        top->count = 0;
    }

    // Only this REF's victims: earlier entries belong to the caller.
    const auto mine = victims.begin() + std::ptrdiff_t(first);
    std::sort(mine, victims.end());
    victims.erase(std::unique(mine, victims.end()), victims.end());
    if (victims.size() > first)
        ++targeted_;
}

} // namespace rp::mitigation
