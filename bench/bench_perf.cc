/**
 * @file
 * perf.serve_unit — the unit job of serve-load measurement: a tiny
 * deterministic run (16 trivial engine tasks, one small dataset)
 * whose cost is dominated by the Service's own per-job overhead.
 * perfbench's serve_mix workload submits it next to the paper
 * experiments; timing is measured from outside the program.
 */

#include "api/context.h"

using namespace rp;

namespace {

void
runPerfServeUnit(api::ExperimentContext &ctx)
{
    const auto vals = ctx.engine().map<std::uint64_t>(
        16, [](const core::TaskContext &t) {
            return t.seed ^ std::uint64_t(t.index);
        });
    std::uint64_t sum = 0;
    for (std::uint64_t v : vals)
        sum += v;
    api::Dataset d("serve unit");
    d.header({"tasks", "checksum"});
    d.row({std::to_string(vals.size()), std::to_string(sum)});
    ctx.emit(d);
}

// Registered directly (not via REGISTER_EXPERIMENT) because the id
// contains a dot, which the macro cannot use as a C++ identifier.
const api::ExperimentRegistrar reg_perf_serve_unit(
    {"perf.serve_unit",
     "Perf: serve-load unit job (tiny deterministic run)",
     "per-job Service overhead isolation", "perf"},
    nullptr, runPerfServeUnit);

} // namespace
