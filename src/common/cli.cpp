#include "common/cli.h"

#include <algorithm>
#include <exception>
#include <filesystem>
#include <ios>
#include <iostream>
#include <stdexcept>

namespace bb::cli {

int cli_main(int argc, char** argv, const char* tool,
             const std::vector<std::string_view>& known_flags,
             const std::function<int(const Flags&)>& run) {
  try {
    const Flags flags(argc, argv);
    for (const std::string& name : flags.names()) {
      if (std::find(known_flags.begin(), known_flags.end(), name) ==
          known_flags.end()) {
        std::cerr << tool << ": unknown flag --" << name << "\n";
        return kExitUsage;
      }
    }
    return run(flags);
  } catch (const std::invalid_argument& e) {
    std::cerr << tool << ": " << e.what() << "\n";
    return kExitUsage;
  } catch (const std::filesystem::filesystem_error& e) {
    std::cerr << tool << ": I/O error: " << e.what() << "\n";
    return kExitIo;
  } catch (const std::ios_base::failure& e) {
    std::cerr << tool << ": I/O error: " << e.what() << "\n";
    return kExitIo;
  } catch (const std::exception& e) {
    std::cerr << tool << ": internal error: " << e.what() << "\n";
    return kExitInternal;
  }
}

}  // namespace bb::cli
