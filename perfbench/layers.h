//===- perfbench/layers.h - Outside-in layer spans --------------*- C++ -*-===//
//
// Span recording for the benchmark's traced runs. Spans are opened by the
// benchmark around its own calls into a layer, and by the link-time
// wrappers in layers.cpp around calls the library makes between modules
// (front end, MIR audit, JIT emission, native audit). Nothing inside the
// compiler is instrumented.
//
// A span's self time is its duration minus the time of the spans nested
// in it. Spans are kept in memory and summed per layer name; every
// wrapped entry point is called on the benchmark's own thread, so the
// recorder is single-threaded.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_LAYERS_H
#define PERFBENCH_LAYERS_H

#include <cstdint>
#include <map>
#include <string>

namespace perfbench {

struct LayerTotals {
  double SelfMs = 0;  ///< Summed self time.
  double TotalMs = 0; ///< Summed inclusive time.
  uint64_t Calls = 0;
};

/// Spans are recorded only while enabled; disabled spans cost one branch.
void setTracing(bool On);
bool tracing();

/// Per-layer sums since the last reset.
const std::map<std::string, LayerTotals> &layerTotals();
void resetLayers();

/// RAII span around one call into layer \p Name (a string literal).
class Span {
public:
  explicit Span(const char *Name);
  ~Span();
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

private:
  bool Active = false;
};

} // namespace perfbench

#endif // PERFBENCH_LAYERS_H
