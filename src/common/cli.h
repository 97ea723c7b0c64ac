// Shared command-line entry-point contract for every tool in the tree
// (bbsim, the bench/ harnesses and the examples that take flags).
//
// Exit codes: 0 success, 2 usage error (bad flag / unknown name), 3 I/O
// error, 4 internal error, 130 interrupted. bbsim documents the contract
// in --help and tools/check_cli_errors enforces it end-to-end; routing
// every main() through cli_main keeps the tools on the same contract
// with one-line diagnostics instead of raw uncaught exceptions.
#pragma once

#include <functional>
#include <string_view>
#include <vector>

#include "common/flags.h"

namespace bb::cli {

inline constexpr int kExitOk = 0;
inline constexpr int kExitUsage = 2;
inline constexpr int kExitIo = 3;
inline constexpr int kExitInternal = 4;
inline constexpr int kExitInterrupted = 130;

/// Parses flags and invokes `run`, mapping escaped exceptions onto the
/// exit-code contract with a one-line `tool: ...` diagnostic on stderr:
/// std::invalid_argument → 2 (usage), std::ios_base::failure /
/// std::filesystem::filesystem_error → 3 (I/O), anything else → 4.
/// `known_flags` lists every --name the tool reads; any other --name exits
/// 2 with `tool: unknown flag --name` before `run` is called.
int cli_main(int argc, char** argv, const char* tool,
             const std::vector<std::string_view>& known_flags,
             const std::function<int(const Flags&)>& run);

}  // namespace bb::cli
