// Microbenchmarks of the library's real (host wall-clock) performance —
// the substrate primitives every reproduced figure is built on.
#include <benchmark/benchmark.h>

#include <memory>

#include "cloud/environment.hpp"
#include "crypto/md5.hpp"
#include "crypto/sha256.hpp"
#include "modchecker/parser.hpp"
#include "modchecker/searcher.hpp"
#include "pe/mapper.hpp"
#include "pe/parser.hpp"
#include "util/rng.hpp"
#include "vmi/session.hpp"

namespace {

using namespace mc;

Bytes random_bytes(std::size_t size, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  Bytes data(size);
  for (auto& b : data) {
    b = static_cast<std::uint8_t>(rng.next());
  }
  return data;
}

void BM_Md5(benchmark::State& state) {
  const Bytes data = random_bytes(static_cast<std::size_t>(state.range(0)), 1);
  for (auto _ : state) {
    auto digest = crypto::Md5::hash(data);
    benchmark::DoNotOptimize(digest);
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Md5)->Arg(4096)->Arg(65536)->Arg(1 << 20);

void BM_Sha256(benchmark::State& state) {
  const Bytes data = random_bytes(static_cast<std::size_t>(state.range(0)), 2);
  for (auto _ : state) {
    auto digest = crypto::Sha256::hash(data);
    benchmark::DoNotOptimize(digest);
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(65536);

void BM_BuildGoldenImages(benchmark::State& state) {
  const auto catalog = cloud::default_catalog();
  for (auto _ : state) {
    cloud::GoldenImages golden(catalog);
    benchmark::DoNotOptimize(golden);
  }
}
BENCHMARK(BM_BuildGoldenImages)->Unit(benchmark::kMillisecond);

void BM_MapImage(benchmark::State& state) {
  const cloud::GoldenImages golden(cloud::default_catalog());
  const Bytes& file = golden.file("http.sys");
  for (auto _ : state) {
    auto mapped = pe::map_image(file);
    benchmark::DoNotOptimize(mapped);
  }
}
BENCHMARK(BM_MapImage)->Unit(benchmark::kMicrosecond);

void BM_BootGuest(benchmark::State& state) {
  for (auto _ : state) {
    cloud::CloudConfig cfg;
    cfg.guest_count = 1;
    cloud::CloudEnvironment env(cfg);
    benchmark::DoNotOptimize(env);
  }
}
BENCHMARK(BM_BootGuest)->Unit(benchmark::kMillisecond);

void BM_VmiExtractModule(benchmark::State& state) {
  cloud::CloudConfig cfg;
  cfg.guest_count = 1;
  cloud::CloudEnvironment env(cfg);
  for (auto _ : state) {
    SimClock clock;
    vmi::VmiSession session(env.hypervisor(), env.guests()[0], clock);
    core::ModuleSearcher searcher(session);
    auto image = searcher.try_extract_module("http.sys");
    benchmark::DoNotOptimize(image);
  }
}
BENCHMARK(BM_VmiExtractModule)->Unit(benchmark::kMicrosecond);

void BM_ParseModule(benchmark::State& state) {
  cloud::CloudConfig cfg;
  cfg.guest_count = 1;
  cloud::CloudEnvironment env(cfg);
  SimClock clock;
  vmi::VmiSession session(env.hypervisor(), env.guests()[0], clock);
  core::ModuleSearcher searcher(session);
  const auto image = searcher.try_extract_module("http.sys");
  if (!image.ok() || !image.value()) {
    state.SkipWithError("http.sys not acquired");
    return;
  }
  const core::ModuleParser parser;
  for (auto _ : state) {
    SimClock parse_clock;
    auto parsed = parser.parse(*image.value(), parse_clock);
    benchmark::DoNotOptimize(parsed);
  }
}
BENCHMARK(BM_ParseModule)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
