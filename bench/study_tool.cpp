// Generic driver over the declarative study registry (bench/study.hpp):
//   study_tool --list                   enumerate registered studies
//   study_tool --markdown               README bench-table rows
//   study_tool <study> [flags...]       run one study with its own flags
//                                       and default CSV
//   study_tool --suite [flags] [names]  run studies as ONE job graph on a
//                                       shared scheduler; with --cache-dir
//                                       and --resume the suite skips every
//                                       shard already in the per-study
//                                       stores.
#include "study.hpp"

int main(int argc, char** argv) {
  return tcw::bench::study_tool_main(argc, argv);
}
