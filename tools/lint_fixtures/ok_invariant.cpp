// analyze-expect: invariant-coverage=0
//
// Negative fixture for the invariant-coverage rule: remap mutations are
// followed by a verify_set call after the last mutation, and read-only
// methods need no check. Never compiled.

void BumblebeeController::clean_remap(SetState& st, u32 set, u32 page,
                                      u32 k) {
  st.new_ple[page] = static_cast<std::int32_t>(k);
  st.occup.set(k);
  st.hot.move_dram_to_hbm(page);
  verify_set(st, set, "clean_remap");
}

u32 BumblebeeController::read_only_scan(const SetState& st) const {
  u32 occupied = 0;
  for (u32 j = 0; j < st.occup.size(); ++j) {
    if (st.occup.test(j)) ++occupied;
  }
  return occupied;
}
