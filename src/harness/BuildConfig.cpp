//===- harness/BuildConfig.cpp - Baseline build configuration -------------===//
//
// Part of the Khaos reproduction project.
//
//===----------------------------------------------------------------------===//

#include "harness/BuildConfig.h"

#include <cctype>

using namespace khaos;

BuildConfig BuildConfig::forLevel(OptLevel Level) {
  BuildConfig BC;
  BC.Level = Level;
  BC.Codegen.SpillEverything = Level == OptLevel::O0;
  return BC;
}

uint64_t BuildConfig::fingerprint() const {
  return static_cast<uint64_t>(Level) |
         static_cast<uint64_t>(packedCodegen()) << 8;
}

uint8_t BuildConfig::packedCodegen() const {
  uint8_t P = 0;
  P |= static_cast<uint8_t>(Codegen.SpillEverything) << 0;
  P |= static_cast<uint8_t>(Codegen.UseLea) << 1;
  P |= static_cast<uint8_t>(Codegen.UseCmov) << 2;
  P |= static_cast<uint8_t>(Codegen.UseJumpTables) << 3;
  P |= static_cast<uint8_t>(Codegen.AlignLoops) << 4;
  P |= static_cast<uint8_t>(Codegen.Style == CompilerStyle::GccLike) << 5;
  return P;
}

CodegenOptions BuildConfig::unpackCodegen(uint8_t Packed) {
  CodegenOptions CG;
  CG.SpillEverything = (Packed >> 0) & 1;
  CG.UseLea = (Packed >> 1) & 1;
  CG.UseCmov = (Packed >> 2) & 1;
  CG.UseJumpTables = (Packed >> 3) & 1;
  CG.AlignLoops = (Packed >> 4) & 1;
  CG.Style = ((Packed >> 5) & 1) ? CompilerStyle::GccLike
                                 : CompilerStyle::ClangLike;
  return CG;
}

std::string BuildConfig::name() const {
  const CodegenOptions Ref = forLevel(Level).Codegen;
  std::string N = optLevelName(Level);
  if (Codegen.SpillEverything != Ref.SpillEverything)
    N += Codegen.SpillEverything ? "+spill" : "-spill";
  if (!Codegen.UseLea)
    N += "-lea";
  if (!Codegen.UseCmov)
    N += "-cmov";
  if (!Codegen.UseJumpTables)
    N += "-jt";
  if (!Codegen.AlignLoops)
    N += "-align";
  if (Codegen.Style == CompilerStyle::GccLike)
    N += "+gcc";
  return N;
}

bool BuildConfig::operator==(const BuildConfig &O) const {
  return fingerprint() == O.fingerprint();
}

const char *khaos::optLevelName(OptLevel Level) {
  switch (Level) {
  case OptLevel::O0:
    return "O0";
  case OptLevel::O1:
    return "O1";
  case OptLevel::O2:
    return "O2";
  case OptLevel::O3:
    return "O3";
  }
  return "O?";
}

bool khaos::parseOptLevelName(const std::string &Text, OptLevel &Out) {
  if (Text.size() != 2 || (Text[0] != 'O' && Text[0] != 'o'))
    return false;
  if (Text[1] < '0' || Text[1] > '3')
    return false;
  Out = static_cast<OptLevel>(Text[1] - '0');
  return true;
}

namespace {

std::vector<std::string> splitCommas(const std::string &Text) {
  std::vector<std::string> Out;
  std::string Cur;
  for (char C : Text) {
    if (C == ',') {
      Out.push_back(Cur);
      Cur.clear();
    } else if (!std::isspace(static_cast<unsigned char>(C))) {
      Cur.push_back(C);
    }
  }
  Out.push_back(Cur);
  return Out;
}

} // namespace

bool khaos::parseBaselineOptList(const std::string &Text,
                                 std::vector<BuildConfig> &Out,
                                 std::string &Err) {
  std::vector<BuildConfig> Parsed;
  for (const std::string &Tok : splitCommas(Text)) {
    if (Tok.empty()) {
      Err = "empty entry in opt-level list '" + Text + "'";
      return false;
    }
    OptLevel Level;
    if (!parseOptLevelName(Tok, Level)) {
      Err = "unknown opt level '" + Tok + "' (expected O0..O3)";
      return false;
    }
    BuildConfig BC = BuildConfig::forLevel(Level);
    for (const BuildConfig &Seen : Parsed)
      if (Seen == BC) {
        Err = "duplicate opt level '" + Tok + "'";
        return false;
      }
    Parsed.push_back(BC);
  }
  Out = std::move(Parsed);
  return true;
}

bool khaos::applyCodegenTokens(const std::string &Text, CodegenOptions &CG,
                               std::string &Err) {
  for (const std::string &Tok : splitCommas(Text)) {
    if (Tok.empty()) {
      // A trailing comma would otherwise surface as the baffling
      // "unknown codegen token ''".
      Err = "empty entry in codegen token list '" + Text + "'";
      return false;
    }
    bool On = true;
    std::string Name = Tok;
    if (Name.rfind("no-", 0) == 0) {
      On = false;
      Name = Name.substr(3);
    }
    if (Name == "spill")
      CG.SpillEverything = On;
    else if (Name == "lea")
      CG.UseLea = On;
    else if (Name == "cmov")
      CG.UseCmov = On;
    else if (Name == "jump-tables")
      CG.UseJumpTables = On;
    else if (Name == "align-loops")
      CG.AlignLoops = On;
    else {
      Err = "unknown codegen token '" + Tok +
            "' (expected [no-]{spill,lea,cmov,jump-tables,align-loops})";
      return false;
    }
  }
  return true;
}

bool khaos::parseCompilerStyleName(const std::string &Text,
                                   CompilerStyle &Out) {
  std::string Lower;
  for (char C : Text)
    Lower.push_back(
        static_cast<char>(std::tolower(static_cast<unsigned char>(C))));
  if (Lower == "clang") {
    Out = CompilerStyle::ClangLike;
    return true;
  }
  if (Lower == "gcc") {
    Out = CompilerStyle::GccLike;
    return true;
  }
  return false;
}

bool khaos::parseCompilerStyleList(const std::string &Text,
                                   std::vector<CompilerStyle> &Out,
                                   std::string &Err) {
  std::vector<CompilerStyle> Parsed;
  for (const std::string &Tok : splitCommas(Text)) {
    if (Tok.empty()) {
      Err = "empty entry in compiler-style list '" + Text + "'";
      return false;
    }
    CompilerStyle Style;
    if (!parseCompilerStyleName(Tok, Style)) {
      Err = "unknown compiler style '" + Tok + "' (expected clang or gcc)";
      return false;
    }
    for (CompilerStyle Seen : Parsed)
      if (Seen == Style) {
        Err = "duplicate compiler style '" + Tok + "'";
        return false;
      }
    Parsed.push_back(Style);
  }
  Out = std::move(Parsed);
  return true;
}
