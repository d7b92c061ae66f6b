/**
 * @file
 * The paper's reported values for Fig. 5-10 (the Paper column of
 * EXPERIMENTS.md). paper_err_pct is the mean absolute relative error
 * of the reproduced values against these.
 */

#ifndef ROBOBENCH_PAPER_HH
#define ROBOBENCH_PAPER_HH

namespace robobench
{

/** Which reproduced quantity a reference value compares against. */
enum class PaperQuantity
{
    SpeedupArm,       //!< RoboX over ARM A57, geomean (N = 32).
    SpeedupXeon,      //!< RoboX over Xeon E3, geomean.
    SpeedupArmMin,    //!< Smallest per-benchmark speedup over ARM.
    SpeedupArmMax,    //!< Largest per-benchmark speedup over ARM.
    SpeedupGtx,       //!< RoboX over GTX 650 Ti.
    SpeedupTegra,     //!< RoboX over Tegra X2.
    SpeedupK40,       //!< RoboX over Tesla K40.
    PpwArm,           //!< RoboX perf/W over ARM A57.
    XeonPpwArm,       //!< Xeon E3 perf/W over ARM A57.
    PpwGtx,           //!< RoboX perf/W over GTX 650 Ti.
    PpwTegra,         //!< RoboX perf/W over Tegra X2.
    PpwK40,           //!< RoboX perf/W over Tesla K40.
    HorizonArm32,     //!< Fig. 9 geomean over ARM at N = 32.
    HorizonArm1024,   //!< Fig. 9 geomean over ARM at N = 1024.
    InterconnectOn,   //!< Fig. 10 with interconnect ALUs, N = 1024.
    InterconnectOff,  //!< Fig. 10 without interconnect ALUs.
};

struct PaperValue
{
    const char *figure;
    const char *label;
    PaperQuantity quantity;
    double value;
};

inline constexpr PaperValue kPaperValues[] = {
    {"Fig. 5", "RoboX over ARM A57 (geomean)", PaperQuantity::SpeedupArm,
     29.4},
    {"Fig. 5", "RoboX over Xeon E3 (geomean)", PaperQuantity::SpeedupXeon,
     7.3},
    {"Fig. 5", "per-benchmark min over ARM", PaperQuantity::SpeedupArmMin,
     6.2},
    {"Fig. 5", "per-benchmark max over ARM", PaperQuantity::SpeedupArmMax,
     79.1},
    {"Fig. 6", "RoboX over GTX 650 Ti", PaperQuantity::SpeedupGtx, 2.0},
    {"Fig. 6", "RoboX over Tegra X2", PaperQuantity::SpeedupTegra, 3.5},
    {"Fig. 6", "RoboX vs Tesla K40", PaperQuantity::SpeedupK40, 0.77},
    {"Fig. 7", "RoboX perf/W over ARM A57", PaperQuantity::PpwArm, 22.1},
    {"Fig. 7", "Xeon E3 perf/W over ARM A57", PaperQuantity::XeonPpwArm,
     0.28},
    {"Fig. 8", "RoboX perf/W over GTX 650 Ti", PaperQuantity::PpwGtx,
     65.5},
    {"Fig. 8", "RoboX perf/W over Tegra X2", PaperQuantity::PpwTegra, 7.8},
    {"Fig. 8", "RoboX perf/W over Tesla K40", PaperQuantity::PpwK40, 71.8},
    {"Fig. 9", "geomean over ARM at N = 32", PaperQuantity::HorizonArm32,
     29.4},
    {"Fig. 9", "geomean over ARM at N = 1024",
     PaperQuantity::HorizonArm1024, 38.7},
    {"Fig. 10", "with interconnect ALUs (N = 1024)",
     PaperQuantity::InterconnectOn, 38.7},
    {"Fig. 10", "without interconnect ALUs (N = 1024)",
     PaperQuantity::InterconnectOff, 25.2},
};

} // namespace robobench

#endif // ROBOBENCH_PAPER_HH
