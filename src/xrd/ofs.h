/// \file ofs.h
/// \brief The "ofs plugin" interface (paper §5.1.2).
///
/// Xrootd data servers become Qserv workers "by plugging custom code into
/// Xrootd as a custom file system ('ofs plugin') implementation". This is
/// that contract: a data server delegates file-level write and read
/// transactions to its plugin. Reads may block until the addressed content
/// exists (results appear when a chunk query finishes).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/deadline.h"
#include "util/status.h"

namespace qserv::xrd {

class OfsPlugin {
 public:
  virtual ~OfsPlugin() = default;

  /// Write transaction: open \p path for writing, deliver \p payload, close.
  virtual util::Status writeFile(const std::string& path,
                                 std::string payload) = 0;

  /// Read transaction: open \p path for reading, read until EOF, close.
  /// May block until the content is published.
  virtual util::Result<std::string> readFile(const std::string& path) = 0;

  /// Deadline-bounded read transaction: like readFile(path) but a blocking
  /// plugin must give up (kUnavailable/kDeadlineExceeded) once \p deadline
  /// expires. The default forwards to the unbounded overload — correct for
  /// plugins that never block.
  virtual util::Result<std::string> readFile(const std::string& path,
                                             const util::Deadline& deadline) {
    (void)deadline;
    return readFile(path);
  }

  /// Chunks this plugin exports; the redirector resolves a chunk id to a
  /// server whose plugin exports it.
  virtual std::vector<std::int32_t> exportedChunks() const = 0;
};

}  // namespace qserv::xrd
