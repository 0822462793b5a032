/**
 * @file
 * PARA (Kim et al., ISCA 2014): probabilistic adjacent row activation.
 * On every activation, with probability p, one neighbor is refreshed.
 * Stateless and cheap in area; overhead grows as the (adapted)
 * RowHammer threshold shrinks.
 */

#ifndef ROWPRESS_MITIGATION_PARA_H
#define ROWPRESS_MITIGATION_PARA_H

#include "common/rng.h"
#include "mitigation/mitigation.h"

namespace rp::mitigation {

/** PARA configuration. */
struct ParaConfig
{
    double p = 0.034;       ///< Per-activation refresh probability.
    std::uint64_t seed = 1;
};

/**
 * Derive PARA's p for a (possibly RowPress-adapted) threshold,
 * matching the paper's Table 3 configurations (p ~= 34 / T'_RH).
 */
ParaConfig paraFor(std::uint32_t adapted_trh, std::uint64_t seed = 1);

/** The PARA mechanism. */
class Para : public Mitigation
{
  public:
    explicit Para(ParaConfig cfg) : cfg_(cfg), rng_(cfg.seed) {}

    void
    onActivate(int flat_bank, int row,
               std::vector<int> &victims) override
    {
        (void)flat_bank;
        if (rng_.uniform() < cfg_.p) {
            victims.push_back(rng_.uniform() < 0.5 ? row - 1 : row + 1);
            ++preventive_;
        }
    }

  private:
    ParaConfig cfg_;
    Rng rng_;
};

} // namespace rp::mitigation

#endif // ROWPRESS_MITIGATION_PARA_H
