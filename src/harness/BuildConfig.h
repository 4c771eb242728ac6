//===- harness/BuildConfig.h - Baseline build configuration -----*- C++ -*-===//
//
// Part of the Khaos reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The baseline build configuration — optimization level plus codegen
/// style — as a first-class value. Historically the pipeline hard-coded
/// an O2 baseline; the confound experiments (does the *build delta* or
/// the *obfuscation* defeat a diffing tool?) need the baseline to be an
/// explicit axis: part of every artifact key, part of the daemon wire
/// protocol, and parseable from the shared bench flags.
///
//===----------------------------------------------------------------------===//

#ifndef KHAOS_HARNESS_BUILDCONFIG_H
#define KHAOS_HARNESS_BUILDCONFIG_H

#include "codegen/ISel.h"
#include "transform/Pass.h"

#include <cstdint>
#include <string>
#include <vector>

namespace khaos {

/// One baseline build configuration: what `-O<n>` plus codegen tuning
/// flags are to a real compiler. Equality and the fingerprint cover every
/// field, so two configs that could produce different images never share
/// an artifact-store entry (in memory or on disk).
struct BuildConfig {
  OptLevel Level = OptLevel::O2;
  CodegenOptions Codegen;

  /// The repo's reference-build convention: unoptimized builds keep every
  /// value in memory (SpillEverything at O0), optimized builds use the
  /// default codegen style.
  static BuildConfig forLevel(OptLevel Level);

  /// Stage-key fingerprint: the opt level in the low byte and
  /// packedCodegen() above it, the layout the BaselineImage stage has
  /// always used, so a config is content-addressed identically wherever
  /// it appears.
  uint64_t fingerprint() const;

  /// The codegen knobs packed into one byte for the wire protocol
  /// (bit 0 = SpillEverything, 1 = UseLea, 2 = UseCmov, 3 = UseJumpTables,
  /// 4 = AlignLoops, 5 = GccLike compiler style — the KEV1 v3 addition).
  uint8_t packedCodegen() const;
  static CodegenOptions unpackCodegen(uint8_t Packed);

  /// Human-readable name, stable and space-free so it can be a column in
  /// byte-identical bench output: "O2", "O0+spill", "O1+spill-lea",
  /// "O2+gcc", … Deviations from the level's reference convention are
  /// appended; the gcc compiler style always is.
  std::string name() const;

  bool operator==(const BuildConfig &O) const;
  bool operator!=(const BuildConfig &O) const { return !(*this == O); }
};

/// "O0".."O3" for a level (used in bench tables and daemon diagnostics).
const char *optLevelName(OptLevel Level);

/// Parses "O0".."O3" (case-insensitive). Returns false on anything else.
bool parseOptLevelName(const std::string &Text, OptLevel &Out);

/// Parses a `--baseline-opt` comma list ("O0,O2") into reference configs
/// (BuildConfig::forLevel per entry, duplicates rejected). On failure
/// returns false with a diagnostic in \p Err.
bool parseBaselineOptList(const std::string &Text,
                          std::vector<BuildConfig> &Out, std::string &Err);

/// Applies a `--codegen` comma token list to \p CG. Tokens: spill,
/// no-spill, lea, no-lea, cmov, no-cmov, jump-tables, no-jump-tables,
/// align-loops, no-align-loops. On failure returns false with a
/// diagnostic in \p Err.
bool applyCodegenTokens(const std::string &Text, CodegenOptions &CG,
                        std::string &Err);

/// Parses "clang" / "gcc" (case-insensitive). Returns false on anything
/// else.
bool parseCompilerStyleName(const std::string &Text, CompilerStyle &Out);

/// Parses a `--compiler-style` comma list ("clang,gcc") into styles
/// (duplicates and empty entries rejected). On failure returns false with
/// a diagnostic in \p Err.
bool parseCompilerStyleList(const std::string &Text,
                            std::vector<CompilerStyle> &Out,
                            std::string &Err);

} // namespace khaos

#endif // KHAOS_HARNESS_BUILDCONFIG_H
