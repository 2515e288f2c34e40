#include "qserv/chunk_template.h"

#include "datagen/partitioner.h"
#include "sql/parser.h"
#include "util/strings.h"

namespace qserv::core {

using util::Result;
using util::Status;

std::string ChunkQueryTemplate::describe() const {
  auto plan = ChunkPlan::parse(*this);
  if (!plan.isOk() || bindings.empty()) return sql;
  std::vector<std::string> parts;
  for (const TableBinding& b : bindings) {
    const sql::TableRef& ref = plan->stmt().from[b.from];
    const char* suffix = b.kind == TableBindingKind::kChunk
                             ? "_<chunk>"
                             : b.kind == TableBindingKind::kSubChunk
                                   ? "_<chunk>_<subchunk>"
                                   : "FullOverlap_<chunk>_<subchunk>";
    parts.push_back(ref.bindingName() + " = " + ref.table + suffix);
  }
  return sql + " [" + util::join(parts, ", ") + "]";
}

Result<ChunkPlan> ChunkPlan::parse(const ChunkQueryTemplate& query) {
  ChunkPlan plan;
  QSERV_ASSIGN_OR_RETURN(plan.stmt_, sql::parseSelect(query.sql));
  std::vector<bool> marked(plan.stmt_.from.size(), false);
  for (const TableBinding& b : query.bindings) {
    if (b.from >= marked.size() || marked[b.from]) {
      return Status::invalidArgument(util::format(
          "chunk-query template binds FROM entry %u of %zu twice or out of "
          "range",
          static_cast<unsigned>(b.from), marked.size()));
    }
    marked[b.from] = true;
    if (b.kind != TableBindingKind::kChunk) plan.perSubChunk_ = true;
  }
  plan.bindings_ = query.bindings;
  return plan;
}

void ChunkPlan::bind(std::int32_t chunkId, std::int32_t subChunkId,
                     std::vector<sql::TableRef>& from) const {
  for (const TableBinding& b : bindings_) {
    const std::string& base = stmt_.from[b.from].table;
    switch (b.kind) {
      case TableBindingKind::kChunk:
        from[b.from].table = datagen::chunkTableName(base, chunkId);
        break;
      case TableBindingKind::kSubChunk:
        from[b.from].table =
            datagen::subChunkTableName(base, chunkId, subChunkId);
        break;
      case TableBindingKind::kFullOverlap:
        from[b.from].table = datagen::subChunkTableName(
            base + "FullOverlap", chunkId, subChunkId);
        break;
    }
  }
}

std::string ChunkPlan::boundSql(std::int32_t chunkId,
                                std::int32_t subChunkId) const {
  sql::SelectStmt bound = stmt_.clone();
  bind(chunkId, subChunkId, bound.from);
  return bound.toSql();
}

}  // namespace qserv::core
