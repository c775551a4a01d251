// SPEC CPU 2017 model: all 43 workloads (intrate/intspeed/fprate/fpspeed).
//
// Speed workloads reuse their rate sibling's profile at a larger working set
// — deliberately: prior work (Limaye & Adegbija 2018, Panda et al. 2017)
// found substantial redundancy between the rate and speed halves, and the
// paper's subset experiment (Section IV-C) exploits exactly that.
#include <algorithm>

#include "stats/rng.hpp"
#include "suites/builders.hpp"
#include "suites/suite_factory.hpp"

namespace perspector::suites {

using namespace detail;

namespace {

// Derives a speed variant from a rate profile: scales the working sets by
// `factor` and perturbs the mix/branch parameters by small name-derived
// deltas. Speed inputs are bigger but the code also spends its time a
// little differently — siblings stay correlated without being clones.
sim::WorkloadSpec scaled_variant(const sim::WorkloadSpec& base,
                                 std::string name, double factor) {
  sim::WorkloadSpec w = base;
  w.name = std::move(name);
  stats::Rng jitter(stats::hash_bytes(w.name));
  for (auto& phase : w.phases) {
    const double ws = static_cast<double>(phase.pattern.working_set_bytes);
    phase.pattern.working_set_bytes =
        std::max<std::uint64_t>(static_cast<std::uint64_t>(ws * factor), 64);
    const auto nudge = [&](double v, double amount, double lo, double hi) {
      return std::clamp(v + jitter.uniform(-amount, amount), lo, hi);
    };
    phase.load_frac = nudge(phase.load_frac, 0.04, 0.0, 0.6);
    phase.store_frac = nudge(phase.store_frac, 0.03, 0.0, 0.4);
    phase.branch_frac = nudge(phase.branch_frac, 0.03, 0.01, 0.4);
    phase.fp_frac = nudge(phase.fp_frac, phase.fp_frac > 0 ? 0.04 : 0.0,
                          0.0, 0.5);
    phase.branch_taken_prob = nudge(phase.branch_taken_prob, 0.05, 0.0, 1.0);
    phase.branch_randomness = nudge(phase.branch_randomness, 0.04, 0.0, 1.0);
    if ((phase.pattern.kind == sim::AccessPatternKind::Sequential ||
         phase.pattern.kind == sim::AccessPatternKind::Strided) &&
        jitter.bernoulli(0.5)) {
      phase.pattern.stride_bytes *= 2;
    }
  }
  return w;
}

}  // namespace

sim::SuiteSpec spec17(const SuiteBuildOptions& options) {
  const std::uint64_t n = options.instructions_per_workload;
  sim::SuiteSpec suite;
  suite.name = "SPEC'17";

  // ---- intrate -----------------------------------------------------------
  auto perlbench = workload(
      "500.perlbench_r", n,
      {phase("parse", 0.3, {.loads = 0.28, .stores = 0.12, .branches = 0.22},
             seq(8 * MiB), {.taken = 0.7, .randomness = 0.18, .sites = 256}),
       phase("interp", 0.7, {.loads = 0.30, .stores = 0.10, .branches = 0.24},
             zipf(16 * MiB, 1.2),
             {.taken = 0.6, .randomness = 0.22, .sites = 512})});
  auto gcc = workload(
      "502.gcc_r", n,
      {phase("front", 0.35, {.loads = 0.30, .stores = 0.14, .branches = 0.2},
             seq(12 * MiB), {.taken = 0.72, .randomness = 0.15, .sites = 512}),
       phase("opt", 0.65, {.loads = 0.32, .stores = 0.12, .branches = 0.21},
             chase(10 * MiB), {.taken = 0.65, .randomness = 0.2, .sites = 512})});
  auto mcf = workload(
      "505.mcf_r", n,
      {phase("simplex", 1.0, {.loads = 0.44, .stores = 0.06, .branches = 0.16},
             chase(48 * MiB), {.taken = 0.8, .randomness = 0.12})});
  auto omnetpp = workload(
      "520.omnetpp_r", n,
      {phase("events", 1.0, {.loads = 0.34, .stores = 0.16, .branches = 0.2},
             chase(32 * MiB), {.taken = 0.68, .randomness = 0.18, .sites = 256})});
  auto xalancbmk = workload(
      "523.xalancbmk_r", n,
      {phase("xml-parse", 0.4, {.loads = 0.3, .stores = 0.16, .branches = 0.2},
             seq(6 * MiB), {.taken = 0.75, .randomness = 0.12}),
       phase("xslt", 0.6, {.loads = 0.32, .stores = 0.12, .branches = 0.22},
             zipf(24 * MiB, 0.8), {.taken = 0.66, .randomness = 0.18})});
  auto x264 = workload(
      "525.x264_r", n,
      {phase("me-search", 0.6,
             {.loads = 0.34, .stores = 0.1, .branches = 0.12, .fp = 0.08},
             strided(16 * MiB, 256), {.taken = 0.9, .randomness = 0.05}),
       phase("encode", 0.4,
             {.loads = 0.28, .stores = 0.16, .branches = 0.12, .fp = 0.1},
             seq(8 * MiB, 64), {.taken = 0.9, .randomness = 0.05})});
  auto deepsjeng = workload(
      "531.deepsjeng_r", n,
      {phase("search", 1.0, {.loads = 0.28, .stores = 0.08, .branches = 0.24},
             rnd(4 * MiB), {.taken = 0.55, .randomness = 0.3, .sites = 512})});
  auto leela = workload(
      "541.leela_r", n,
      {phase("mcts", 1.0,
             {.loads = 0.27, .stores = 0.09, .branches = 0.22, .fp = 0.06},
             rnd(2 * MiB), {.taken = 0.6, .randomness = 0.25, .sites = 256})});
  auto exchange2 = workload(
      "548.exchange2_r", n,
      {phase("puzzle", 1.0, {.loads = 0.12, .stores = 0.05, .branches = 0.3},
             seq(256 * KiB), {.taken = 0.85, .randomness = 0.04, .sites = 64})});
  auto xz = workload(
      "557.xz_r", n,
      {phase("compress", 0.55, {.loads = 0.3, .stores = 0.18, .branches = 0.16},
             seq(32 * MiB, 16), {.taken = 0.78, .randomness = 0.12}),
       phase("match", 0.45, {.loads = 0.36, .stores = 0.08, .branches = 0.18},
             rnd(8 * MiB), {.taken = 0.64, .randomness = 0.2})});

  // ---- fprate ------------------------------------------------------------
  auto bwaves = workload(
      "503.bwaves_r", n,
      {phase("solver", 1.0,
             {.loads = 0.36, .stores = 0.12, .branches = 0.06, .fp = 0.34},
             seq(24 * MiB, 8), {.taken = 0.95, .randomness = 0.02})});
  auto cactu = workload(
      "507.cactuBSSN_r", n,
      {phase("stencil", 1.0,
             {.loads = 0.34, .stores = 0.14, .branches = 0.06, .fp = 0.32},
             strided(16 * MiB, 1024), {.taken = 0.94, .randomness = 0.03})});
  auto namd = workload(
      "508.namd_r", n,
      {phase("forces", 1.0,
             {.loads = 0.3, .stores = 0.1, .branches = 0.08, .fp = 0.4},
             rnd(1 * MiB), {.taken = 0.9, .randomness = 0.05})});
  auto parest = workload(
      "510.parest_r", n,
      {phase("assemble", 0.4,
             {.loads = 0.3, .stores = 0.14, .branches = 0.1, .fp = 0.28},
             chase(8 * MiB), {.taken = 0.85, .randomness = 0.08}),
       phase("solve", 0.6,
             {.loads = 0.34, .stores = 0.1, .branches = 0.08, .fp = 0.34},
             strided(12 * MiB, 64), {.taken = 0.92, .randomness = 0.04})});
  auto povray = workload(
      "511.povray_r", n,
      {phase("trace", 1.0,
             {.loads = 0.26, .stores = 0.08, .branches = 0.18, .fp = 0.3},
             rnd(512 * KiB), {.taken = 0.7, .randomness = 0.15, .sites = 256})});
  auto lbm = workload(
      "519.lbm_r", n,
      {phase("stream-collide", 1.0,
             {.loads = 0.30, .stores = 0.30, .branches = 0.04, .fp = 0.26},
             seq(56 * MiB, 8), {.taken = 0.97, .randomness = 0.01})});
  auto wrf = workload(
      "521.wrf_r", n,
      {phase("dynamics", 0.6,
             {.loads = 0.32, .stores = 0.12, .branches = 0.08, .fp = 0.32},
             seq(16 * MiB, 8), {.taken = 0.92, .randomness = 0.04}),
       phase("physics", 0.4,
             {.loads = 0.28, .stores = 0.12, .branches = 0.12, .fp = 0.3},
             strided(8 * MiB, 512), {.taken = 0.85, .randomness = 0.08})});
  auto blender = workload(
      "526.blender_r", n,
      {phase("render", 1.0,
             {.loads = 0.3, .stores = 0.1, .branches = 0.12, .fp = 0.3},
             rnd(8 * MiB), {.taken = 0.8, .randomness = 0.1})});
  auto cam4 = workload(
      "527.cam4_r", n,
      {phase("physics", 1.0,
             {.loads = 0.3, .stores = 0.12, .branches = 0.12, .fp = 0.28},
             strided(8 * MiB, 256), {.taken = 0.84, .randomness = 0.1})});
  auto imagick = workload(
      "538.imagick_r", n,
      {phase("convolve", 1.0,
             {.loads = 0.3, .stores = 0.14, .branches = 0.06, .fp = 0.38},
             seq(4 * MiB, 8), {.taken = 0.95, .randomness = 0.02})});
  auto nab = workload(
      "544.nab_r", n,
      {phase("md", 1.0,
             {.loads = 0.28, .stores = 0.1, .branches = 0.1, .fp = 0.36},
             rnd(2 * MiB), {.taken = 0.88, .randomness = 0.06})});
  auto fotonik = workload(
      "549.fotonik3d_r", n,
      {phase("fdtd", 1.0,
             {.loads = 0.34, .stores = 0.16, .branches = 0.04, .fp = 0.32},
             strided(32 * MiB, 2048), {.taken = 0.96, .randomness = 0.02})});
  auto roms = workload(
      "554.roms_r", n,
      {phase("ocean", 1.0,
             {.loads = 0.34, .stores = 0.14, .branches = 0.06, .fp = 0.32},
             seq(32 * MiB, 8), {.taken = 0.95, .randomness = 0.03})});

  suite.workloads = {perlbench, gcc,    mcf,     omnetpp, xalancbmk, x264,
                     deepsjeng, leela,  exchange2, xz,
                     bwaves,    cactu,  namd,    parest,  povray,    lbm,
                     wrf,       blender, cam4,   imagick, nab,       fotonik,
                     roms};

  // ---- intspeed: scaled siblings of the intrate profiles ------------------
  suite.workloads.push_back(scaled_variant(perlbench, "600.perlbench_s", 2.0));
  suite.workloads.push_back(scaled_variant(gcc, "602.gcc_s", 2.5));
  suite.workloads.push_back(scaled_variant(mcf, "605.mcf_s", 1.5));
  suite.workloads.push_back(scaled_variant(omnetpp, "620.omnetpp_s", 1.5));
  suite.workloads.push_back(scaled_variant(xalancbmk, "623.xalancbmk_s", 2.0));
  suite.workloads.push_back(scaled_variant(x264, "625.x264_s", 1.5));
  suite.workloads.push_back(scaled_variant(deepsjeng, "631.deepsjeng_s", 4.0));
  suite.workloads.push_back(scaled_variant(leela, "641.leela_s", 1.0));
  suite.workloads.push_back(scaled_variant(exchange2, "648.exchange2_s", 1.0));
  suite.workloads.push_back(scaled_variant(xz, "657.xz_s", 2.0));

  // ---- fpspeed: scaled siblings of the fprate profiles ---------------------
  suite.workloads.push_back(scaled_variant(bwaves, "603.bwaves_s", 2.0));
  suite.workloads.push_back(scaled_variant(cactu, "607.cactuBSSN_s", 1.5));
  suite.workloads.push_back(scaled_variant(lbm, "619.lbm_s", 1.2));
  suite.workloads.push_back(scaled_variant(wrf, "621.wrf_s", 1.5));
  suite.workloads.push_back(scaled_variant(cam4, "627.cam4_s", 1.5));
  // pop2 has no rate sibling; an ocean model close to roms.
  suite.workloads.push_back(scaled_variant(roms, "628.pop2_s", 1.3));
  suite.workloads.push_back(scaled_variant(imagick, "638.imagick_s", 2.0));
  suite.workloads.push_back(scaled_variant(nab, "644.nab_s", 2.0));
  suite.workloads.push_back(scaled_variant(fotonik, "649.fotonik3d_s", 1.5));
  suite.workloads.push_back(scaled_variant(roms, "654.roms_s", 1.5));

  suite.validate();
  return suite;
}

}  // namespace perspector::suites
