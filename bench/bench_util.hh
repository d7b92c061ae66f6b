/**
 * @file
 * Shared helpers for the bench binaries: the banner, argv discipline,
 * the benchmark list, and accelerator configurations for the CU sweep.
 */

#ifndef ROBOX_BENCH_BENCH_UTIL_HH
#define ROBOX_BENCH_BENCH_UTIL_HH

#include <cstdio>
#include <string>
#include <vector>

#include "accel/config.hh"
#include "robots/robots.hh"

namespace robox::bench
{

/** Print a banner naming the paper artifact being reproduced. */
inline void
banner(const char *artifact, const char *description)
{
    std::printf("==================================================="
                "=============================\n");
    std::printf("RoboX reproduction — %s\n%s\n", artifact, description);
    std::printf("==================================================="
                "=============================\n");
}

/**
 * Argv discipline for reproduction binaries that take no flags: any
 * argument is unknown, so print a usage line and hand main() a
 * nonzero exit code instead of silently ignoring it (a typoed
 * `--smoke` must not run the full sweep and look like a CI pass).
 * Returns 0 when the command line is clean.
 */
inline int
requireNoFlags(int argc, char **argv, const char *name)
{
    if (argc <= 1)
        return 0;
    std::fprintf(stderr, "usage: %s (takes no flags; got \"%s\")\n",
                 name, argv[1]);
    return 2;
}

/** Accelerator configuration with a given total CU count. CU counts
 *  below 16 shrink one cluster; larger counts add 16-CU clusters. */
inline accel::AcceleratorConfig
configWithCus(int total_cus)
{
    accel::AcceleratorConfig cfg = accel::AcceleratorConfig::paperDefault();
    if (total_cus <= 16) {
        cfg.numCcs = 1;
        cfg.cusPerCc = total_cus;
    } else {
        cfg.numCcs = total_cus / 16;
        cfg.cusPerCc = 16;
    }
    return cfg;
}

} // namespace robox::bench

#endif // ROBOX_BENCH_BENCH_UTIL_HH
