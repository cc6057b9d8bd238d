/**
 * @file
 * The benchmark's own arithmetic: percentiles that carry their sample
 * count, ratios that carry their base, and the wall time no
 * timed layer call accounts for.  Header-only so the benchmark and its
 * tests share one definition.
 */

#ifndef FSP_PERFBENCH_BENCH_STATS_HH
#define FSP_PERFBENCH_BENCH_STATS_HH

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <map>
#include <string>
#include <vector>

namespace fsp::perfbench {

/** A percentile together with the number of samples it was taken over. */
struct Percentile
{
    double value = 0.0;
    std::size_t samples = 0;
};

/**
 * Nearest-rank percentile: the smallest sample with at least a share
 * @p q of all samples at or below it (q = 0.5 is the lower median,
 * q = 1 the maximum).  An empty set gives {0, 0}.
 */
inline Percentile
percentile(std::vector<double> samples, double q)
{
    Percentile p;
    p.samples = samples.size();
    if (samples.empty())
        return p;
    q = std::clamp(q, 0.0, 1.0);
    std::size_t rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(samples.size())));
    std::size_t index = rank == 0 ? 0 : rank - 1;
    std::nth_element(samples.begin(),
                     samples.begin() + static_cast<std::ptrdiff_t>(index),
                     samples.end());
    p.value = samples[index];
    return p;
}

/** A ratio together with its base (the denominator). */
struct Ratio
{
    double value = 0.0;
    double base = 0.0;
};

/** @p part / @p base; a zero base gives 0, reported beside the base. */
inline Ratio
ratio(double part, double base)
{
    return Ratio{base == 0.0 ? 0.0 : part / base, base};
}

/**
 * Pass wall time minus the summed wall time of the timed layer calls.
 * The calls are sequential on the pass's thread, so the difference is
 * the time the benchmark cannot credit to any layer.
 */
inline double
unattributedSeconds(double passWall,
                    const std::map<std::string, double> &layerSeconds)
{
    double timed = 0.0;
    for (const auto &[name, seconds] : layerSeconds)
        timed += seconds;
    return passWall - timed;
}

} // namespace fsp::perfbench

#endif // FSP_PERFBENCH_BENCH_STATS_HH
