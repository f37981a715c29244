// BuildTable: memtable -> level-0 SSTable (minor compaction / dump).
#pragma once

#include <cstdint>
#include <string>

#include "src/db/options.h"
#include "src/util/status.h"

namespace pipelsm {

class Env;
class Iterator;
struct FileMetaData;
class TableCache;
class TableOptions;

// Builds a table file from *iter (which yields internal keys). On success
// (non-empty input) fills *meta and leaves the file in the table cache;
// on empty input or error the file is removed. *entries receives the
// number of internal keys written.
Status BuildTable(const std::string& dbname, Env* env,
                  const TableOptions& table_options, TableCache* table_cache,
                  Iterator* iter, FileMetaData* meta, uint64_t* entries);

}  // namespace pipelsm
