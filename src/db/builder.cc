#include "src/db/builder.h"

#include <cassert>

#include "src/db/dbformat.h"
#include "src/db/filename.h"
#include "src/db/table_cache.h"
#include "src/env/env.h"
#include "src/table/table_builder.h"
#include "src/version/version_edit.h"

namespace pipelsm {

Status BuildTable(const std::string& dbname, Env* env,
                  const TableOptions& table_options, TableCache* table_cache,
                  Iterator* iter, FileMetaData* meta, uint64_t* entries) {
  Status s;
  meta->file_size = 0;
  *entries = 0;
  iter->SeekToFirst();

  std::string fname = TableFileName(dbname, meta->number);
  if (iter->Valid()) {
    std::unique_ptr<WritableFile> file;
    s = env->NewWritableFile(fname, &file);
    if (!s.ok()) {
      return s;
    }

    TableBuilder builder(table_options, file.get());
    meta->smallest.DecodeFrom(iter->key());
    Slice key;
    for (; iter->Valid(); iter->Next()) {
      key = iter->key();
      builder.Add(key, iter->value());
      ++*entries;
    }
    if (!key.empty()) {
      meta->largest.DecodeFrom(key);
    }

    // Finish and check for builder errors. A failed Finish() has already
    // closed the builder, so Abandon() must not be called on top of it.
    s = builder.Finish();
    if (s.ok()) {
      meta->file_size = builder.FileSize();
      assert(meta->file_size > 0);
    }

    // Finish and check for file errors.
    if (s.ok()) {
      s = file->Sync();
    }
    if (s.ok()) {
      s = file->Close();
    }

    if (s.ok()) {
      // Verify that the table is usable.
      std::shared_ptr<Table> table;
      s = table_cache->GetTable(meta->number, meta->file_size, &table);
    }
  }

  // Check for input iterator errors.
  if (!iter->status().ok()) {
    s = iter->status();
  }

  if (s.ok() && meta->file_size > 0) {
    // Keep it.
  } else {
    env->RemoveFile(fname);
  }
  return s;
}

}  // namespace pipelsm
