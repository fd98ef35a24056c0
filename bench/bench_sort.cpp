// Ablation bench **S7**: edge-list sorting. Sorting is the dominant
// preprocessing cost of the unsorted pipeline (the paper assumes
// pre-sorted input; real SNAP files are not), so the choice matters:
// std::sort against EdgeList::sort, the parallel LSD radix sort on the
// packed (u, v) key that every build path uses.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#include "graph/generators.hpp"

namespace {

using pcq::graph::Edge;
using pcq::graph::EdgeList;

EdgeList make_edges(std::size_t m) {
  return pcq::graph::rmat(1 << 20, m, 0.57, 0.19, 0.19, 7, 0);
}

void BM_Sort_Std(benchmark::State& state) {
  const EdgeList input = make_edges(static_cast<std::size_t>(state.range(0)));
  std::vector<Edge> v;
  for (auto _ : state) {
    v.assign(input.edges().begin(), input.edges().end());
    std::sort(v.begin(), v.end());
    benchmark::DoNotOptimize(v.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
// Both report wall time: at p > 1 the main thread's CPU time would miss
// the other sort threads.
BENCHMARK(BM_Sort_Std)->Arg(1 << 18)->Arg(1 << 21)->UseRealTime();

void BM_Sort_EdgeList(benchmark::State& state) {
  const EdgeList input = make_edges(static_cast<std::size_t>(state.range(0)));
  const int threads = static_cast<int>(state.range(1));
  EdgeList list;
  for (auto _ : state) {
    list = input;
    list.sort(threads);
    benchmark::DoNotOptimize(list.edges().data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sort_EdgeList)
    ->Args({1 << 18, 1})
    ->Args({1 << 21, 1})
    ->Args({1 << 21, 2})
    ->Args({1 << 21, 4})
    ->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
