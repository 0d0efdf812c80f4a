// Engineering micro-benchmarks (google-benchmark): not a paper figure, but a
// regression guard on the substrate's hot paths — decoder, execution engine,
// cache model, branch predictor, whole-CPU simulation rates, checkpoint
// capture/restore, and the FaultManager fast path that Fig. 7's overhead
// story depends on.
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "apps/app.hpp"
#include "chkpt/checkpoint.hpp"
#include "common.hpp"
#include "cpu/branch_predictor.hpp"
#include "mem/cache.hpp"
#include "sim/simulation.hpp"
#include "util/rng.hpp"

using namespace gemfi;

namespace {

void BM_Decode(benchmark::State& state) {
  util::Rng rng(1);
  std::vector<isa::Word> words(4096);
  for (auto& w : words) w = isa::Word(rng.next());
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(isa::decode(words[i++ & 4095]));
  }
}
BENCHMARK(BM_Decode);

void BM_CacheAccess(benchmark::State& state) {
  mem::Cache cache({.size_bytes = 32 * 1024, .line_bytes = 64, .ways = 4});
  util::Rng rng(2);
  std::vector<std::uint64_t> addrs(4096);
  for (auto& a : addrs) a = rng.below(1 << 20);
  std::size_t i = 0;
  for (auto _ : state) {
    const bool is_write = (i & 7) == 0;
    benchmark::DoNotOptimize(cache.access(addrs[i & 4095], is_write));
    ++i;
  }
}
BENCHMARK(BM_CacheAccess);

void BM_PredictorLookupUpdate(benchmark::State& state) {
  cpu::TournamentPredictor pred;
  util::Rng rng(3);
  std::uint64_t pc = 0x2000;
  for (auto _ : state) {
    const auto p = pred.predict(pc);
    const bool taken = rng.chance(0.6);
    pred.update(pc, taken, pc + 64, p.taken != taken);
    pc += 4;
    if (pc > 0x4000) pc = 0x2000;
  }
}
BENCHMARK(BM_PredictorLookupUpdate);

void simulate_app(benchmark::State& state, sim::CpuKind kind, bool fi,
                  bool predecode = true, bool fastpath = true,
                  const char* app_name = "pi", bool mem_bound = false) {
  const apps::App app = apps::build_app(app_name);
  std::uint64_t insts = 0;
  for (auto _ : state) {
    sim::SimConfig cfg;
    cfg.cpu = kind;
    cfg.fi_enabled = fi;
    cfg.predecode = predecode;
    cfg.fastpath = fastpath;
    if (mem_bound) {
      // Stress geometry (cache sizes match the lockstep suite): the working
      // set blows through both levels, and DRAM costs a realistic memory
      // wall (~300 CPU cycles; the default 60 models an older, shallower
      // hierarchy), so stall cycles dominate the tick stream — the regime
      // paper-scale workloads put the timing models in.
      cfg.mem.l1i = {.size_bytes = 1024, .line_bytes = 64, .ways = 2, .hit_latency = 1, .name = "l1i"};
      cfg.mem.l1d = {.size_bytes = 1024, .line_bytes = 64, .ways = 2, .hit_latency = 2, .name = "l1d"};
      cfg.mem.l2 = {.size_bytes = 4096, .line_bytes = 64, .ways = 4, .hit_latency = 10, .name = "l2"};
      cfg.mem.dram_latency = 300;
    }
    sim::Simulation s(cfg, app.program);
    s.spawn_main_thread();
    const auto rr = s.run();
    insts += rr.committed;
  }
  state.counters["insts/s"] =
      benchmark::Counter(double(insts), benchmark::Counter::kIsRate);
}

// The Sim* rows pair up as the A/B comparisons for the two host-side fast
// paths: default rows run the shipping configuration; NoPredecode rows
// disable the predecoded-instruction cache (live fetch+decode on every
// instruction); NoFastpath rows disable the timing-model fast lane (MRU
// cache hits, the fetch line buffer, stall-cycle warping, the batched
// TimingSimple loop) — the fastpath=false per-tick reference.
void BM_SimAtomic(benchmark::State& state) {
  simulate_app(state, sim::CpuKind::AtomicSimple, false);
}
BENCHMARK(BM_SimAtomic)->Unit(benchmark::kMillisecond);

void BM_SimAtomicNoPredecode(benchmark::State& state) {
  simulate_app(state, sim::CpuKind::AtomicSimple, false, /*predecode=*/false);
}
BENCHMARK(BM_SimAtomicNoPredecode)->Unit(benchmark::kMillisecond);

void BM_SimTiming(benchmark::State& state) {
  simulate_app(state, sim::CpuKind::TimingSimple, false);
}
BENCHMARK(BM_SimTiming)->Unit(benchmark::kMillisecond);

void BM_SimTimingNoFastpath(benchmark::State& state) {
  simulate_app(state, sim::CpuKind::TimingSimple, false, /*predecode=*/true,
               /*fastpath=*/false);
}
BENCHMARK(BM_SimTimingNoFastpath)->Unit(benchmark::kMillisecond);

void BM_SimPipelined(benchmark::State& state) {
  simulate_app(state, sim::CpuKind::Pipelined, false);
}
BENCHMARK(BM_SimPipelined)->Unit(benchmark::kMillisecond);

void BM_SimPipelinedNoPredecode(benchmark::State& state) {
  simulate_app(state, sim::CpuKind::Pipelined, false, /*predecode=*/false);
}
BENCHMARK(BM_SimPipelinedNoPredecode)->Unit(benchmark::kMillisecond);

void BM_SimPipelinedNoFastpath(benchmark::State& state) {
  simulate_app(state, sim::CpuKind::Pipelined, false, /*predecode=*/true,
               /*fastpath=*/false);
}
BENCHMARK(BM_SimPipelinedNoFastpath)->Unit(benchmark::kMillisecond);

// MemBound rows: deblock on the small stress caches — compute-light, miss-
// heavy, so nearly every tick sits in a cache/DRAM stall. This is where the
// stall-warping half of the fast lane carries the speedup (the default rows
// above are L1-resident and mostly measure the MRU/batch half).
void BM_SimTimingMemBound(benchmark::State& state) {
  simulate_app(state, sim::CpuKind::TimingSimple, false, /*predecode=*/true,
               /*fastpath=*/true, "deblock", /*mem_bound=*/true);
}
BENCHMARK(BM_SimTimingMemBound)->Unit(benchmark::kMillisecond);

void BM_SimTimingMemBoundNoFastpath(benchmark::State& state) {
  simulate_app(state, sim::CpuKind::TimingSimple, false, /*predecode=*/true,
               /*fastpath=*/false, "deblock", /*mem_bound=*/true);
}
BENCHMARK(BM_SimTimingMemBoundNoFastpath)->Unit(benchmark::kMillisecond);

void BM_SimPipelinedMemBound(benchmark::State& state) {
  simulate_app(state, sim::CpuKind::Pipelined, false, /*predecode=*/true,
               /*fastpath=*/true, "deblock", /*mem_bound=*/true);
}
BENCHMARK(BM_SimPipelinedMemBound)->Unit(benchmark::kMillisecond);

void BM_SimPipelinedMemBoundNoFastpath(benchmark::State& state) {
  simulate_app(state, sim::CpuKind::Pipelined, false, /*predecode=*/true,
               /*fastpath=*/false, "deblock", /*mem_bound=*/true);
}
BENCHMARK(BM_SimPipelinedMemBoundNoFastpath)->Unit(benchmark::kMillisecond);

void BM_SimPipelinedFiEnabled(benchmark::State& state) {
  simulate_app(state, sim::CpuKind::Pipelined, true);
}
BENCHMARK(BM_SimPipelinedFiEnabled)->Unit(benchmark::kMillisecond);

void BM_CheckpointCapture(benchmark::State& state) {
  const apps::App app = apps::build_app("pi");
  sim::SimConfig cfg;
  cfg.cpu = sim::CpuKind::AtomicSimple;
  sim::Simulation s(cfg, app.program);
  s.spawn_main_thread();
  std::size_t bytes = 0;
  for (auto _ : state) {
    const auto ckpt = chkpt::Checkpoint::capture(s);
    bytes += ckpt.size_bytes();
    benchmark::DoNotOptimize(ckpt);
  }
  state.SetBytesProcessed(std::int64_t(bytes));
}
BENCHMARK(BM_CheckpointCapture)->Unit(benchmark::kMillisecond);

void BM_CheckpointRestore(benchmark::State& state) {
  const apps::App app = apps::build_app("pi");
  sim::SimConfig cfg;
  cfg.cpu = sim::CpuKind::AtomicSimple;
  sim::Simulation s(cfg, app.program);
  s.spawn_main_thread();
  const auto ckpt = chkpt::Checkpoint::capture(s);
  std::size_t bytes = 0;
  for (auto _ : state) {
    ckpt.restore_into(s);
    bytes += ckpt.size_bytes();
  }
  state.SetBytesProcessed(std::int64_t(bytes));
}
BENCHMARK(BM_CheckpointRestore)->Unit(benchmark::kMillisecond);

void BM_FaultParse(benchmark::State& state) {
  const std::string line =
      "RegisterInjectedFault Inst:2457 Flip:21 Threadid:0 system.cpu1 occ:1 int 1";
  for (auto _ : state) benchmark::DoNotOptimize(fi::parse_fault(line));
}
BENCHMARK(BM_FaultParse);

/// ConsoleReporter that additionally copies every reported run into the
/// shared JSON sink (bench/common), so `--json=<path>` emits the same
/// machine-readable BENCH_*.json document as the figure benches.
class JsonRecordingReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred) continue;
      const std::string name = run.benchmark_name();
      bench::json_record(name + ".real_time", run.GetAdjustedRealTime(),
                         benchmark::GetTimeUnitString(run.time_unit), "bench_micro");
      bench::json_record(name + ".cpu_time", run.GetAdjustedCPUTime(),
                         benchmark::GetTimeUnitString(run.time_unit), "bench_micro");
      for (const auto& [cname, counter] : run.counters)
        bench::json_record(name + "." + cname, counter.value, "counter", "bench_micro");
    }
    ConsoleReporter::ReportRuns(runs);
  }
};

}  // namespace

// Custom main instead of BENCHMARK_MAIN(): peel off the repo-local
// --json=<path> flag before google-benchmark sees the command line (it
// rejects unknown flags), then report through the JSON-recording reporter.
int main(int argc, char** argv) {
  std::string json_path;
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--json=", 0) == 0)
      json_path = arg.substr(7);
    else
      args.push_back(argv[i]);
  }
  int bench_argc = int(args.size());
  benchmark::Initialize(&bench_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, args.data())) return 1;
  JsonRecordingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  return bench::json_write(json_path, "micro") ? 0 : 1;
}
