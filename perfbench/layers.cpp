//===- perfbench/layers.cpp - Span recorder and link-time wrappers --------===//
//
// The wrappers below replace calls the compiler's libraries make from one
// module into another's public entry point. perfbench/CMakeLists.txt reads
// the PERFBENCH_SYM_* mangled names below and passes `--wrap=<symbol>` to
// the linker, which routes references to <symbol> to __wrap_<symbol>; the
// wrapper opens a span and calls __real_<symbol>, the original. A changed
// signature no longer matches its mangled name and fails the link.
//
//===----------------------------------------------------------------------===//

#include "layers.h"

#include "frontend/Frontend.h"
#include "verify/MIRVerifier.h"
#include "verify/NativeVerifier.h"
#include "x64/NativeCodeGen.h"

#include <chrono>
#include <vector>

using namespace ipra;
using Clock = std::chrono::steady_clock;

namespace perfbench {
namespace {

struct Frame {
  const char *Name;
  Clock::time_point Start;
  double ChildMs;
};

bool Enabled = false;
std::vector<Frame> Stack;
std::map<std::string, LayerTotals> Totals;

} // namespace

void setTracing(bool On) { Enabled = On; }
bool tracing() { return Enabled; }
const std::map<std::string, LayerTotals> &layerTotals() { return Totals; }
void resetLayers() { Totals.clear(); }

Span::Span(const char *Name) {
  if (!Enabled)
    return;
  Active = true;
  Stack.push_back({Name, Clock::now(), 0});
}

Span::~Span() {
  if (!Active)
    return;
  Frame F = Stack.back();
  Stack.pop_back();
  double Ms =
      std::chrono::duration<double, std::milli>(Clock::now() - F.Start)
          .count();
  LayerTotals &T = Totals[F.Name];
  T.SelfMs += Ms - F.ChildMs;
  T.TotalMs += Ms;
  ++T.Calls;
  if (!Stack.empty())
    Stack.back().ChildMs += Ms;
}

} // namespace perfbench

// Mangled names of the wrapped entry points (one per line; CMake reads them).
#define PERFBENCH_SYM_COMPILE_TO_IR "_ZN4ipra11compileToIRERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEERNS_16DiagnosticEngineE"
#define PERFBENCH_SYM_VERIFY_MIR "_ZN4ipra20verifyMachineProgramERKNS_8MProgramERKNS_12SummaryTableERKNS_14MVerifyOptionsE"
#define PERFBENCH_SYM_VERIFY_PLACEMENTS "_ZN4ipra16verifyPlacementsERKNS_6ModuleERKSt6vectorINS_16AllocationResultESaIS4_EERKNS_12SummaryTableEb"
#define PERFBENCH_SYM_EMIT_NATIVE "_ZN4ipra3x6417emitNativeProgramERKNS_8MProgramERKNS0_20NativeCodeGenOptionsERKNS0_11RegMapTableERKSt6vectorImSaImEERNS0_10NativeCodeERNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEE"
#define PERFBENCH_SYM_VERIFY_NATIVE "_ZN4ipra3x6416verifyNativeCodeERKNS_8MProgramERKNS0_20NativeCodeGenOptionsERKNS0_11RegMapTableERKSt6vectorImSaImEERKNS0_10NativeCodeERKNS0_14NVerifyOptionsE"

using perfbench::Span;

// frontend: compileToIR
std::unique_ptr<Module> realCompileToIR(const std::string &, DiagnosticEngine &)
    asm("__real_" PERFBENCH_SYM_COMPILE_TO_IR);
std::unique_ptr<Module> wrapCompileToIR(const std::string &S,
                                        DiagnosticEngine &D)
    asm("__wrap_" PERFBENCH_SYM_COMPILE_TO_IR);
std::unique_ptr<Module> wrapCompileToIR(const std::string &S,
                                        DiagnosticEngine &D) {
  Span Sp("frontend");
  return realCompileToIR(S, D);
}

// verify (MIR): verifyMachineProgram and verifyPlacements
MVerifyResult realVerifyMIR(const MProgram &, const SummaryTable &,
                            const MVerifyOptions &)
    asm("__real_" PERFBENCH_SYM_VERIFY_MIR);
MVerifyResult wrapVerifyMIR(const MProgram &P, const SummaryTable &S,
                            const MVerifyOptions &O)
    asm("__wrap_" PERFBENCH_SYM_VERIFY_MIR);
MVerifyResult wrapVerifyMIR(const MProgram &P, const SummaryTable &S,
                            const MVerifyOptions &O) {
  Span Sp("verify.mir");
  return realVerifyMIR(P, S, O);
}

std::vector<MVerifyDiag>
realVerifyPlacements(const Module &, const std::vector<AllocationResult> &,
                     const SummaryTable &, bool)
    asm("__real_" PERFBENCH_SYM_VERIFY_PLACEMENTS);
std::vector<MVerifyDiag>
wrapVerifyPlacements(const Module &M, const std::vector<AllocationResult> &A,
                     const SummaryTable &S, bool Inter)
    asm("__wrap_" PERFBENCH_SYM_VERIFY_PLACEMENTS);
std::vector<MVerifyDiag>
wrapVerifyPlacements(const Module &M, const std::vector<AllocationResult> &A,
                     const SummaryTable &S, bool Inter) {
  Span Sp("verify.placements");
  return realVerifyPlacements(M, A, S, Inter);
}

// x64: emitNativeProgram
bool realEmitNative(const MProgram &, const x64::NativeCodeGenOptions &,
                    const x64::RegMapTable &, const std::vector<size_t> &,
                    x64::NativeCode &, std::string &)
    asm("__real_" PERFBENCH_SYM_EMIT_NATIVE);
bool wrapEmitNative(const MProgram &P, const x64::NativeCodeGenOptions &O,
                    const x64::RegMapTable &M, const std::vector<size_t> &Off,
                    x64::NativeCode &Out, std::string &Err)
    asm("__wrap_" PERFBENCH_SYM_EMIT_NATIVE);
bool wrapEmitNative(const MProgram &P, const x64::NativeCodeGenOptions &O,
                    const x64::RegMapTable &M, const std::vector<size_t> &Off,
                    x64::NativeCode &Out, std::string &Err) {
  Span Sp("x64.emit");
  return realEmitNative(P, O, M, Off, Out, Err);
}

// verify (native): verifyNativeCode
x64::NVerifyResult realVerifyNative(const MProgram &,
                                    const x64::NativeCodeGenOptions &,
                                    const x64::RegMapTable &,
                                    const std::vector<size_t> &,
                                    const x64::NativeCode &,
                                    const x64::NVerifyOptions &)
    asm("__real_" PERFBENCH_SYM_VERIFY_NATIVE);
x64::NVerifyResult wrapVerifyNative(const MProgram &P,
                                    const x64::NativeCodeGenOptions &O,
                                    const x64::RegMapTable &M,
                                    const std::vector<size_t> &Off,
                                    const x64::NativeCode &C,
                                    const x64::NVerifyOptions &VO)
    asm("__wrap_" PERFBENCH_SYM_VERIFY_NATIVE);
x64::NVerifyResult wrapVerifyNative(const MProgram &P,
                                    const x64::NativeCodeGenOptions &O,
                                    const x64::RegMapTable &M,
                                    const std::vector<size_t> &Off,
                                    const x64::NativeCode &C,
                                    const x64::NVerifyOptions &VO) {
  Span Sp("verify.native");
  return realVerifyNative(P, O, M, Off, C, VO);
}
