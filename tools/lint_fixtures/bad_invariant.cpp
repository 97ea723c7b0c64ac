// analyze-expect: invariant-coverage=1
//
// Positive fixture for the invariant-coverage rule: a BumblebeeController
// method that rewrites PRT/BLE/hot-table remap state and returns without a
// verify_set / check_set_invariants call, so a corrupted set would go
// undetected. Never compiled.

void BumblebeeController::leaky_remap(SetState& st, u32 set, u32 page,
                                      u32 k) {
  st.new_ple[page] = static_cast<std::int32_t>(k);
  st.occup.set(k);
  st.ble[k].mode = Ble::Mode::kCache;
  st.hot.move_dram_to_hbm(page);
}  // finding: no invariant check after the last mutation
