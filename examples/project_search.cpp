// project_search: the paper's motivating scenario (Examples 1 and 2 of the
// introduction) on a generated personal dataspace.
//
// Query 1: "Show me all LaTeX 'Introduction' sections pertaining to project
//           PIM that contain the phrase 'Mike Franklin'."
// Query 2: "Show me all documents pertaining to project 'OLAP' that have a
//           figure containing the phrase 'Indexing Time' in its label."
//
// Both queries bridge boundaries no 2006 desktop tool could cross: the
// inside/outside-file boundary (Query 1 constrains folders *and* sections
// inside .tex files) and the subsystem boundary (Query 2's figures live in
// a file on disk and in an email attachment).
//
//   $ ./examples/project_search [iql-query]

#include <cstdio>

#include "core/graph.h"
#include "iql/dataspace.h"
#include "vfs/vfs_views.h"
#include "workload/generator.h"

using namespace idm;

namespace {

void ShowResult(const iql::Dataspace& ds, const std::string& iql) {
  auto result = ds.Query(iql);
  if (!result.ok()) {
    std::printf("  error: %s\n", result.status().ToString().c_str());
    return;
  }
  std::printf("iQL> %s\n", iql.c_str());
  std::printf("  %zu result(s), %.2f ms, %zu views expanded\n", result->size(),
              result->elapsed_micros / 1000.0, result->expanded_views);
  size_t shown = 0;
  for (const auto& row : result->rows) {
    if (++shown > 8) {
      std::printf("  ... (%zu more)\n", result->size() - 8);
      break;
    }
    std::string cells;
    for (size_t c = 0; c < row.size(); ++c) {
      if (c > 0) cells += "  <->  ";
      cells += ds.UriOf(row[c]);
    }
    std::printf("  %s\n", cells.c_str());
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  iql::Dataspace ds;
  std::printf("generating a small personal dataspace...\n");
  auto built = workload::Generate(workload::DataspaceSpec::Small(), ds.clock());
  auto fs_stats = ds.AddFileSystem("Filesystem", built.fs);
  auto mail_stats = ds.AddImap("Email / IMAP", built.imap);
  if (!fs_stats.ok() || !mail_stats.ok()) {
    std::fprintf(stderr, "indexing failed\n");
    return 1;
  }
  std::printf("dataspace: %zu resource views over 2 sources\n\n",
              ds.module().catalog().live_count());

  if (argc > 1) {
    ShowResult(ds, argv[1]);  // ad-hoc query from the command line
    return 0;
  }

  std::printf("--- Query 1 (inside versus outside files) ---\n");
  ShowResult(ds,
             "//PIM//Introduction[class=\"latex_section\" and \"Mike Franklin\"]");

  std::printf("--- Query 2 (files versus email attachments) ---\n");
  ShowResult(ds, "//OLAP//[class=\"figure\" and \"Indexing Time\"]");

  // Show how Query 1's hit sits *inside* a file: walk up the uri.
  auto result = ds.Query(
      "//PIM//Introduction[class=\"latex_section\" and \"Mike Franklin\"]");
  if (result.ok() && !result->rows.empty()) {
    index::DocId id = result->rows[0][0];
    std::printf("--- the Query 1 hit, in context ---\n");
    std::printf("  view:   %s\n", ds.UriOf(id).c_str());
    std::printf("  name:   %s (class %s)\n", ds.NameOf(id).c_str(),
                std::string(ds.module().catalog().Entry(id)->class_name)
                    .c_str());
    auto parents = ds.module().groups().Parents(id);
    while (!parents.empty()) {
      index::DocId parent = parents[0];
      std::printf("  inside: %-18s %s\n", ds.NameOf(parent).c_str(),
                  ds.UriOf(parent).c_str());
      parents = ds.module().groups().Parents(parent);
    }
  }

  // And the paper's graph structure: the 'All Projects' folder link makes
  // the files&folders graph cyclic in iDM.
  std::printf("\n--- graph shape around /Projects (the folder-link cycle) ---\n");
  auto root_view = vfs::MakeVfsView(built.fs, "/Projects");
  if (root_view.ok()) {
    switch (core::ClassifyShape(*root_view)) {
      case core::GraphShape::kTree: std::printf("  tree\n"); break;
      case core::GraphShape::kDag: std::printf("  DAG\n"); break;
      case core::GraphShape::kCyclic:
        std::printf("  cyclic (Projects -> PIM -> All Projects -> Projects)\n");
        break;
    }
  }
  return 0;
}
