// e2e_scenario: the benchmark's child process.  run.py starts one fresh
// process per step, so a hang, an abort or allocator state never leaks from
// one scenario into the next.
//
//   e2e_scenario plan  --workload=W --seed=S --count=K --trace=0|1
//       Generates the first K scenarios of workload W from seed S, computes
//       the failure-free reference of the workload's problem with the serial
//       solver, and constructs the first scenario's Runtime and FtApp
//       without launching them.  Prints one JSON object.
//   e2e_scenario run   --id=... --technique=... (one scenario spec)
//       Runs one scenario through FtApp::launch and prints one JSON object
//       with the launch wall and CPU, the runtime's counters and the
//       blackboard.  --trace=1 adds spans and the runtime's event trace.
//
// Every value the program reads is given on the command line; an unknown or
// malformed argument is an error (exit 2).  The FTR_* environment knobs that
// override AppConfig or Runtime::Options are refused, not silently applied.

#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "advection/problem.hpp"
#include "advection/serial_solver.hpp"
#include "combination/coefficients.hpp"
#include "combination/combine.hpp"
#include "common/crc32.hpp"
#include "common/rng.hpp"
#include "core/async_repair.hpp"
#include "core/failure_gen.hpp"
#include "core/ft_app.hpp"
#include "core/layout.hpp"
#include "ftmpi/cost_model.hpp"
#include "ftmpi/runtime.hpp"
#include "ftmpi/trace.hpp"
#include "grid/transfer.hpp"
#include "recovery/planner.hpp"

using ftr::comb::Technique;
using ftr::core::RecoveryPolicy;

namespace {

constexpr const char* kEnvKnobs[] = {
    "FTR_AGREE",        "FTR_BUDDY_EVERY", "FTR_DETECTOR",  "FTR_DOORBELL_POLL",
    "FTR_FAILURE_DIST", "FTR_FAILURE_SCALE", "FTR_FAILURE_SHAPE", "FTR_HB_PERIOD",
    "FTR_HB_SUSPECT",   "FTR_HB_TIMEOUT",  "FTR_LOG",       "FTR_PROACTIVE",
    "FTR_RECOVERY",     "FTR_TRACE"};

/// Modeled cell updates per second: the value the repo's application benches
/// use (bench_common.hpp kBenchCellRate), so virtual times here sit on the
/// same scale as the figure tables.
constexpr double kCellRate = 4.0e5;

double now_us() {
  return static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                 std::chrono::steady_clock::now().time_since_epoch())
                                 .count()) /
         1e3;
}

// --- spans ------------------------------------------------------------------

struct Span {
  std::string name;
  std::string parent;
  double start_us = 0;
  double end_us = 0;
};

class Spans {
 public:
  explicit Spans(bool on) : on_(on) {}
  /// Times `fn`; records a span under `parent` when tracing is on.
  template <class Fn>
  double timed(const char* name, const char* parent, Fn&& fn) {
    const double t0 = now_us();
    fn();
    const double t1 = now_us();
    if (on_) spans_.push_back(Span{name, parent, t0, t1});
    return (t1 - t0) / 1e6;
  }
  void record(const char* name, const char* parent, double t0, double t1) {
    if (on_) spans_.push_back(Span{name, parent, t0, t1});
  }
  [[nodiscard]] bool on() const { return on_; }
  [[nodiscard]] const std::vector<Span>& all() const { return spans_; }

 private:
  bool on_;
  std::vector<Span> spans_;
};

// --- JSON output ------------------------------------------------------------

std::string num(double v) {
  if (std::isnan(v)) return "NaN";
  if (std::isinf(v)) return v > 0 ? "Infinity" : "-Infinity";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string str(const std::string& s) { return "\"" + s + "\""; }

class Obj {
 public:
  Obj& add(const std::string& k, const std::string& raw) {
    body_ += (body_.empty() ? "" : ",") + str(k) + ":" + raw;
    return *this;
  }
  Obj& add(const std::string& k, double v) { return add(k, num(v)); }
  [[nodiscard]] std::string done() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

std::string spans_json(const Spans& s) {
  std::string out = "[";
  for (const Span& sp : s.all()) {
    if (out.size() > 1) out += ",";
    out += Obj()
               .add("name", str(sp.name))
               .add("parent", str(sp.parent))
               .add("start_us", sp.start_us)
               .add("end_us", sp.end_us)
               .done();
  }
  return out + "]";
}

// --- argument parsing -------------------------------------------------------

class Args {
 public:
  Args(int argc, char** argv, const std::set<std::string>& allowed) {
    for (int i = 2; i < argc; ++i) {
      const std::string a = argv[i];
      const auto eq = a.find('=');
      if (a.rfind("--", 0) != 0 || eq == std::string::npos) {
        throw std::invalid_argument("expected --key=value, got '" + a + "'");
      }
      const std::string key = a.substr(2, eq - 2);
      if (allowed.count(key) == 0) throw std::invalid_argument("unknown argument --" + key);
      if (!kv_.emplace(key, a.substr(eq + 1)).second) {
        throw std::invalid_argument("duplicate argument --" + key);
      }
    }
  }
  [[nodiscard]] std::string get(const std::string& k) const {
    const auto it = kv_.find(k);
    if (it == kv_.end()) throw std::invalid_argument("missing argument --" + k);
    return it->second;
  }
  [[nodiscard]] long get_long(const std::string& k, long lo, long hi) const {
    return parse_long(get(k), k, lo, hi);
  }
  [[nodiscard]] double get_double(const std::string& k) const {
    const std::string v = get(k);
    char* end = nullptr;
    const double d = std::strtod(v.c_str(), &end);
    if (v.empty() || *end != '\0' || !std::isfinite(d) || d <= 0) {
      throw std::invalid_argument("--" + k + " needs a positive number, got '" + v + "'");
    }
    return d;
  }
  static long parse_long(const std::string& v, const std::string& what, long lo, long hi) {
    char* end = nullptr;
    errno = 0;
    const long x = std::strtol(v.c_str(), &end, 10);
    if (v.empty() || *end != '\0' || errno != 0 || x < lo || x > hi) {
      throw std::invalid_argument(what + " needs an integer in [" + std::to_string(lo) +
                                  ", " + std::to_string(hi) + "], got '" + v + "'");
    }
    return x;
  }

 private:
  std::map<std::string, std::string> kv_;
};

// --- scenarios --------------------------------------------------------------

struct Scenario {
  std::string id;
  Technique technique = Technique::CheckpointRestart;
  RecoveryPolicy policy = RecoveryPolicy::Technique;
  int n = 8;
  int l = 4;
  int scale = 1;  ///< multiple of the paper's 8/4/2/1 per-grid allocation
  long steps = 64;
  long checkpoints = 0;
  long buddy_every = 0;
  int slots_per_host = 12;
  std::map<int, long> kills;  ///< world rank -> timestep
};

const char* technique_arg(Technique t) {
  switch (t) {
    case Technique::CheckpointRestart: return "cr";
    case Technique::ResamplingCopying: return "rc";
    case Technique::AlternateCombination: return "ac";
  }
  return "?";
}

Technique parse_technique(const std::string& v) {
  if (v == "cr") return Technique::CheckpointRestart;
  if (v == "rc") return Technique::ResamplingCopying;
  if (v == "ac") return Technique::AlternateCombination;
  throw std::invalid_argument("--technique must be cr, rc or ac, got '" + v + "'");
}

const char* policy_arg(RecoveryPolicy p) {
  switch (p) {
    case RecoveryPolicy::Technique: return "technique";
    case RecoveryPolicy::Planner: return "planner";
    case RecoveryPolicy::Overlap: return "overlap";
    default: return "?";
  }
}

RecoveryPolicy parse_policy(const std::string& v) {
  if (v == "technique") return RecoveryPolicy::Technique;
  if (v == "planner") return RecoveryPolicy::Planner;
  if (v == "overlap") return RecoveryPolicy::Overlap;
  throw std::invalid_argument("--policy must be technique, planner or overlap, got '" + v +
                              "'");
}

std::string kills_arg(const std::map<int, long>& kills) {
  std::string s;
  for (const auto& [r, step] : kills) {
    s += (s.empty() ? "" : ",") + std::to_string(r) + ":" + std::to_string(step);
  }
  return s;
}

std::map<int, long> parse_kills(const std::string& v) {
  std::map<int, long> out;
  std::size_t pos = 0;
  while (pos < v.size()) {
    const std::size_t comma = std::min(v.find(',', pos), v.size());
    const std::string item = v.substr(pos, comma - pos);
    const auto colon = item.find(':');
    if (colon == std::string::npos) throw std::invalid_argument("--kills item '" + item + "'");
    const int r = static_cast<int>(Args::parse_long(item.substr(0, colon), "kill rank", 1, 1 << 20));
    const long s = Args::parse_long(item.substr(colon + 1), "kill step", 1, 1L << 30);
    if (!out.emplace(r, s).second) throw std::invalid_argument("--kills repeats rank");
    pos = comma + 1;
  }
  return out;
}

ftr::core::LayoutConfig layout_of(const Scenario& sc) {
  ftr::core::LayoutConfig cfg;
  cfg.scheme = ftr::comb::Scheme{sc.n, sc.l};
  cfg.technique = sc.technique;
  cfg.procs_diagonal = 8 * sc.scale;
  cfg.procs_lower = 4 * sc.scale;
  cfg.procs_extra_upper = 2 * sc.scale;
  cfg.procs_extra_lower = 1 * sc.scale;
  return cfg;
}

ftr::core::AppConfig app_config(const Scenario& sc) {
  ftr::core::AppConfig cfg;
  cfg.layout = layout_of(sc);
  cfg.timesteps = sc.steps;
  cfg.checkpoints = sc.checkpoints;
  cfg.recovery = sc.policy;
  cfg.buddy_every = sc.buddy_every;
  cfg.failures.kill_at_step = sc.kills;
  // Explicit values for every knob FtApp's constructor may otherwise take
  // from the environment (see kEnvKnobs).
  cfg.proactive_recovery = sc.policy == RecoveryPolicy::Overlap;
  cfg.doorbell_poll = 1;
  return cfg;
}

ftmpi::Runtime::Options runtime_options(const Scenario& sc, double limit_s) {
  const ftmpi::ClusterProfile profile = ftmpi::ClusterProfile::opl();
  ftmpi::Runtime::Options opt;
  opt.slots_per_host = sc.slots_per_host;
  opt.cost = profile.cost;
  opt.cost.cell_update_rate = kCellRate;
  opt.real_time_limit_sec = limit_s;
  opt.detector = ftmpi::detector::Options{};
  opt.tree_protocols = true;
  return opt;
}

std::string scenario_json(const Scenario& sc) {
  return Obj()
      .add("id", str(sc.id))
      .add("technique", str(technique_arg(sc.technique)))
      .add("policy", str(policy_arg(sc.policy)))
      .add("n", sc.n)
      .add("l", sc.l)
      .add("scale", sc.scale)
      .add("steps", static_cast<double>(sc.steps))
      .add("checkpoints", static_cast<double>(sc.checkpoints))
      .add("buddy_every", static_cast<double>(sc.buddy_every))
      .add("slots_per_host", sc.slots_per_host)
      .add("kills", str(kills_arg(sc.kills)))
      .done();
}

/// Lost grids of a real-failure plan (the grids owning a victim rank).
std::vector<int> lost_grids(const ftr::core::Layout& layout, const std::map<int, long>& kills) {
  std::vector<int> ranks;
  for (const auto& [r, s] : kills) ranks.push_back(r);
  const auto g = layout.grids_of_ranks(ranks);
  return {g.begin(), g.end()};
}

std::vector<ftr::grid::Level> levels_of(const ftr::core::Layout& layout,
                                        const std::vector<int>& grids) {
  std::vector<ftr::grid::Level> out;
  for (int id : grids) out.push_back(layout.slots[static_cast<std::size_t>(id)].level);
  return out;
}

bool gcp_feasible(const ftr::core::Layout& layout, const std::map<int, long>& kills) {
  const ftr::comb::CoefficientProblem gcp(layout.config.scheme,
                                          1 + layout.config.extra_layers);
  return gcp.solve(levels_of(layout, lost_grids(layout, kills))).has_value();
}

/// `count` victims with kill steps from exponential inter-arrival gaps whose
/// mean spreads them over the run, so repairs land in different CR
/// intervals.  AC plans are redrawn until the GCP over the survivors is
/// feasible (bench_fig9's feasible_losses protocol).  With `distinct_grids`
/// plans are also redrawn until no two victims share a grid: a victim whose
/// grid already lost a member stalls before its kill step, so its planned
/// kill either never fires (RC, AC) or fires during the CR recompute.
std::map<int, long> draw_victims(const Scenario& sc, int count, bool distinct_grids,
                                 ftr::Xoshiro256& rng) {
  const ftr::core::Layout layout = ftr::core::build_layout(layout_of(sc));
  const ftr::core::ArrivalModel model{ftr::core::FailureDist::Exponential,
                                      static_cast<double>(sc.steps) / (count + 1), 1.0};
  for (int attempt = 0; attempt < 1000; ++attempt) {
    auto plan = ftr::core::scheduled_real_failures(layout, count, sc.steps, model, rng);
    if (sc.technique == Technique::AlternateCombination && !gcp_feasible(layout, plan.kill_at_step)) {
      continue;
    }
    if (distinct_grids && lost_grids(layout, plan.kill_at_step).size() != plan.kill_at_step.size()) {
      continue;
    }
    return plan.kill_at_step;
  }
  throw std::runtime_error("no admissible victim set found");
}

/// Grid 1's second member: never the repair leader, never world rank 0
/// (bench_overlap's victim).
int overlap_fixed_victim(const ftr::core::Layout& layout) {
  for (int r = 1; r < layout.total_procs; ++r) {
    if (layout.grid_of_rank(r) == 1) return r + 1;
  }
  return -1;
}

const std::vector<std::string> kWorkloads = {"wide-ff", "deep-ff", "repair-mix", "repair-mix-any",
                                             "overlap-1f"};

/// Scenario `index` of `workload` under `seed`.  Each scenario draws from
/// its own stream, so the list is a pure function of (workload, seed).
Scenario make_scenario(const std::string& workload, std::uint64_t seed, long index) {
  Scenario sc;
  sc.id = workload + "/" + std::to_string(seed) + "/" + std::to_string(index);
  ftr::Xoshiro256 base(seed);
  ftr::Xoshiro256 rng = base.split(static_cast<std::uint64_t>(index) + 1);
  if (workload == "wide-ff") {
    sc.technique = Technique::ResamplingCopying;
    sc.scale = 8;
    sc.steps = 128;
  } else if (workload == "deep-ff") {
    sc.n = 10;
    sc.steps = 256;
    sc.checkpoints = 3;
  } else if (workload == "repair-mix" || workload == "repair-mix-any") {
    sc.scale = 2;
    sc.steps = 64;
    sc.checkpoints = 3;
    switch (index % 4) {
      case 0: break;
      case 1: sc.technique = Technique::ResamplingCopying; break;
      case 2: sc.technique = Technique::AlternateCombination; break;
      default:
        sc.policy = RecoveryPolicy::Planner;
        sc.buddy_every = sc.steps / 8;
        break;
    }
    sc.kills = draw_victims(sc, 2 + static_cast<int>(rng.bounded(3)),
                            workload == "repair-mix", rng);
  } else if (workload == "overlap-1f") {
    // bench_overlap's shape at k = 2: 3 diagonal grids of 8 ranks, 2 lower
    // grids of 4 (32 ranks), two checkpoints, 24 steps.
    sc.n = 6;
    sc.l = 3;
    sc.scale = 1;
    sc.steps = 24;
    sc.checkpoints = 2;
    sc.slots_per_host = 16;
    sc.policy = RecoveryPolicy::Overlap;
    if (index % 2 == 0) {
      const ftr::core::Layout layout = ftr::core::build_layout(layout_of(sc));
      sc.kills[overlap_fixed_victim(layout)] = 10;
    } else {
      sc.kills = draw_victims(sc, 1, false, rng);
    }
  } else {
    throw std::invalid_argument("unknown workload '" + workload + "'");
  }
  return sc;
}

// --- plan mode: scenario list + serial reference ----------------------------

std::string reference_json(const Scenario& sc, long checkpoints, Spans& spans) {
  const ftr::advection::Problem problem{};
  const double dt = ftr::advection::stable_timestep(sc.n, problem, 0.9);
  const ftr::comb::Scheme scheme{sc.n, sc.l};
  std::vector<ftr::advection::SerialSolver> solvers;
  double cell_updates = 0;
  for (const auto& lv : scheme.combination_levels()) {
    solvers.emplace_back(lv, problem, dt);
    const auto& g = solvers.back().grid();
    cell_updates += 2.0 * static_cast<double>(sc.steps) * (g.nx() - 1) * (g.ny() - 1);
  }
  timespec c0{}, c1{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &c0);
  for (auto& s : solvers) {
    spans.timed("advection.serial_run", "setup", [&] { s.run(sc.steps); });
  }
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &c1);
  const double serial_cpu =
      static_cast<double>(c1.tv_sec - c0.tv_sec) + 1e-9 * static_cast<double>(c1.tv_nsec - c0.tv_nsec);

  std::vector<const ftr::grid::Grid2D*> grids;
  for (const auto& s : solvers) grids.push_back(&s.grid());
  ftr::grid::Grid2D combined;
  const double combine_s = spans.timed("combination.combine_full", "setup", [&] {
    combined = ftr::comb::combine_full(scheme, ftr::comb::classic_components(scheme, grids));
  });
  const double t_final = static_cast<double>(sc.steps) * dt;
  const double err = ftr::grid::l1_error(
      combined, [&](double x, double y) { return problem.exact(x, y, t_final); });

  // CRC over what `checkpoints` checkpoint writes of these grids hash.
  double crc_bytes = 0;
  std::uint32_t crc = 0;
  const double crc_s = spans.timed("common.crc32", "setup", [&] {
    for (long c = 0; c < checkpoints; ++c) {
      for (const auto* g : grids) {
        crc ^= ftr::crc32(g->data().data(), g->bytes());
        crc_bytes += static_cast<double>(g->bytes());
      }
    }
  });
  return Obj()
      .add("error", err)
      .add("serial_cpu_s", serial_cpu)
      .add("cell_updates", cell_updates)
      // Each sweep reads and writes every unique point once (8 B each way).
      .add("bytes_moved_computed", cell_updates * 16.0)
      .add("combine_s", combine_s)
      .add("crc32_s", crc_s)
      .add("crc32_bytes", crc_bytes)
      .add("crc32", static_cast<double>(crc))
      .done();
}

int plan_main(int argc, char** argv) {
  const Args args(argc, argv, {"workload", "seed", "count", "trace"});
  const std::string workload = args.get("workload");
  if (std::find(kWorkloads.begin(), kWorkloads.end(), workload) == kWorkloads.end()) {
    throw std::invalid_argument("unknown workload '" + workload + "'");
  }
  const auto seed = static_cast<std::uint64_t>(args.get_long("seed", 0, 1L << 62));
  const long count = args.get_long("count", 1, 100000);
  Spans spans(args.get_long("trace", 0, 1) == 1);

  std::vector<Scenario> list;
  spans.timed("plan", "setup", [&] {
    for (long i = 0; i < count; ++i) list.push_back(make_scenario(workload, seed, i));
  });
  long ckpt = 0;
  for (const auto& sc : list) {
    if (sc.technique == Technique::CheckpointRestart) ckpt = std::max(ckpt, sc.checkpoints);
  }
  const std::string ref = reference_json(list.front(), ckpt, spans);
  // Construction warm-up: what every scenario process does before launch.
  spans.timed("construct", "setup", [&] {
    ftmpi::Runtime rt(runtime_options(list.front(), 60));
    ftr::core::FtApp app(app_config(list.front()));
  });

  std::string plans = "[";
  for (const auto& sc : list) plans += (plans.size() > 1 ? "," : "") + scenario_json(sc);
  plans += "]";
  std::printf("%s\n", Obj()
                          .add("plans", plans)
                          .add("reference", ref)
                          .add("spans", spans_json(spans))
                          .done()
                          .c_str());
  return 0;
}

// --- run mode: one scenario -------------------------------------------------

struct Usage {
  double user = 0, sys = 0, csw = 0;
  static Usage now() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto tv = [](const timeval& t) {
      return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
    };
    return Usage{tv(ru.ru_utime), tv(ru.ru_stime),
                 static_cast<double>(ru.ru_nvcsw + ru.ru_nivcsw)};
  }
};

/// Peak resident set of this process image in MB (VmHWM).  Not getrusage's
/// ru_maxrss: Linux carries the forking parent's high-water mark across exec
/// into it, so it would report the size of run.py's Python process.
double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return std::nan("");
  char line[256];
  double kb = std::nan("");
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kb) == 1) break;
  }
  std::fclose(f);
  return kb / 1024.0;
}

int run_main(int argc, char** argv) {
  const Args args(argc, argv,
                  {"id", "technique", "policy", "n", "l", "scale", "steps", "checkpoints",
                   "buddy_every", "slots_per_host", "kills", "limit", "trace"});
  Scenario sc;
  sc.id = args.get("id");
  sc.technique = parse_technique(args.get("technique"));
  sc.policy = parse_policy(args.get("policy"));
  sc.n = static_cast<int>(args.get_long("n", 4, 13));
  sc.l = static_cast<int>(args.get_long("l", 2, sc.n));
  sc.scale = static_cast<int>(args.get_long("scale", 1, 64));
  sc.steps = args.get_long("steps", 1, 1L << 20);
  sc.checkpoints = args.get_long("checkpoints", 0, 64);
  sc.buddy_every = args.get_long("buddy_every", 0, sc.steps);
  sc.slots_per_host = static_cast<int>(args.get_long("slots_per_host", 1, 1024));
  sc.kills = parse_kills(args.get("kills"));
  const double limit = args.get_double("limit");
  Spans spans(args.get_long("trace", 0, 1) == 1);

  const double t_setup = now_us();
  ftmpi::Runtime rt(runtime_options(sc, limit));
  if (spans.on()) rt.trace().enable();
  ftr::core::FtApp app(app_config(sc));
  const ftr::core::Layout& layout = app.layout();
  for (const auto& [r, s] : sc.kills) {
    if (r >= layout.total_procs || s >= sc.steps) throw std::invalid_argument("kill outside run");
  }
  const double t_launch = now_us();
  spans.record("setup", "scenario", t_setup, t_launch);

  const auto axis0 = ftr::grid::axis_map_cache_stats();
  const Usage u0 = Usage::now();
  int killed = 0;
  spans.timed("launch", "scenario", [&] { killed = app.launch(rt); });
  const Usage u1 = Usage::now();
  const auto axis1 = ftr::grid::axis_map_cache_stats();
  const double t_end = now_us();

  // Check: time the layer calls that recovering this loss set makes.
  const std::vector<int> lost = lost_grids(layout, sc.kills);
  double gcp_s = 0, plan_s = 0;
  Obj trace_counts;
  spans.timed("check", "scenario", [&] {
    const ftr::comb::CoefficientProblem gcp(layout.config.scheme,
                                            1 + layout.config.extra_layers);
    gcp_s = spans.timed("combination.gcp_solve", "check",
                        [&] { (void)gcp.solve(levels_of(layout, lost)); });
    std::vector<ftr::rec::GridFacts> facts;
    for (int g : lost) facts.push_back(ftr::rec::GridFacts{g, true, sc.buddy_every > 0, -1});
    const auto mode = sc.policy == RecoveryPolicy::Technique
                          ? (sc.technique == Technique::ResamplingCopying
                                 ? ftr::rec::PlannerMode::ForceRc
                                 : sc.technique == Technique::AlternateCombination
                                       ? ftr::rec::PlannerMode::ForceAc
                                       : ftr::rec::PlannerMode::ForceCr)
                          : ftr::rec::PlannerMode::Lattice;
    plan_s = spans.timed("recovery.plan_recovery", "check", [&] {
      (void)ftr::rec::plan_recovery(layout.slots, layout.config.scheme,
                                    1 + layout.config.extra_layers, mode, facts);
    });
    if (spans.on()) {
      using ftmpi::TraceEvent;
      for (auto e : {TraceEvent::Kill, TraceEvent::Spawn, TraceEvent::Revoke, TraceEvent::Shrink,
                     TraceEvent::Agree, TraceEvent::Merge, TraceEvent::Split}) {
        trace_counts.add(ftmpi::trace_event_name(e),
                         static_cast<double>(rt.trace().events_of(e).size()));
      }
    }
  });

  // Overlap bookkeeping (bench_overlap's steps-lost definition).
  double n_cont = 0, owed = 0;
  if (sc.policy == RecoveryPolicy::Overlap && sc.kills.size() == 1) {
    const auto [victim, f] = *sc.kills.begin();
    std::vector<int> survivors;
    for (int r = 0; r < layout.total_procs; ++r) {
      if (r != victim) survivors.push_back(r);
    }
    n_cont = static_cast<double>(
        ftr::core::overlap::classify(layout, survivors, {victim}).continuation.size());
    const long ivl = sc.steps / (sc.checkpoints + 1);
    owed = static_cast<double>(((f + ivl - 1) / ivl) * ivl - f);
  }

  Obj bb;
  for (const auto& [k, v] : rt.results()) bb.add(k, v);
  const auto st = rt.stats();
  std::printf("%s\n",
              Obj()
                  .add("id", str(sc.id))
                  .add("procs", layout.total_procs)
                  .add("killed", killed)
                  .add("planned_kills", static_cast<double>(sc.kills.size()))
                  .add("lost_grids", static_cast<double>(lost.size()))
                  .add("setup_start_us", t_setup)
                  .add("launch_start_us", t_launch)
                  .add("launch_wall_s", (t_end - t_launch) / 1e6)
                  .add("launch_user_s", u1.user - u0.user)
                  .add("launch_sys_s", u1.sys - u0.sys)
                  .add("launch_csw", u1.csw - u0.csw)
                  .add("messages", static_cast<double>(st.messages))
                  .add("bytes", static_cast<double>(st.bytes))
                  .add("cross_host", static_cast<double>(st.cross_host))
                  .add("axis_hits", static_cast<double>(axis1.hits - axis0.hits))
                  .add("axis_misses", static_cast<double>(axis1.misses - axis0.misses))
                  .add("gcp_solve_s", gcp_s)
                  .add("plan_recovery_s", plan_s)
                  .add("overlap_n_cont", n_cont)
                  .add("overlap_owed", owed)
                  .add("peak_rss_mb", peak_rss_mb())
                  .add("trace", trace_counts.done())
                  .add("blackboard", bb.done())
                  .add("spans", spans_json(spans))
                  .done()
                  .c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (const char* knob : kEnvKnobs) {
    if (std::getenv(knob) != nullptr) {
      std::fprintf(stderr, "e2e_scenario: %s is set; the benchmark pins every knob\n", knob);
      return 2;
    }
  }
  const std::string mode = argc > 1 ? argv[1] : "";
  try {
    if (mode == "plan") return plan_main(argc, argv);
    if (mode == "run") return run_main(argc, argv);
    throw std::invalid_argument("mode must be plan or run");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2e_scenario: %s\n", e.what());
    return 2;
  }
}
