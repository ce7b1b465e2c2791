type t = {
  cpi_ns : float;
  jitter_amplitude : float;
  page_fault_ns : int;
  page_commit_ns : int;
  page_merge_ns : int;
  page_refresh_ns : int;
  page_map_ns : int;
  commit_base_ns : int;
  update_base_ns : int;
  barrier_phase1_page_ns : int;
  commit_seal_page_ns : int;
  token_ns : int;
  counter_read_syscall_ns : int;
  counter_read_user_ns : int;
  overflow_interrupt_ns : int;
  sync_op_base_ns : int;
  wake_ns : int;
  fork_base_ns : int;
  fork_page_ns : int;
  pool_reuse_ns : int;
  gc_pages_per_ms : int;
  gc_step_pages : int;
  pthread_lock_ns : int;
  pthread_unlock_ns : int;
  pthread_barrier_ns : int;
  pthread_cond_ns : int;
  pthread_spawn_ns : int;
  pthread_join_ns : int;
  mem_op_instr_per_8bytes : int;
  txn_validate_base_ns : int;
  txn_validate_key_ns : int;
  txn_abort_ns : int;
  txn_backoff_ns : int;
}

let default =
  {
    cpi_ns = 0.5;
    jitter_amplitude = 0.15;
    page_fault_ns = 1_500;
    page_commit_ns = 1_300;
    page_merge_ns = 400;
    page_refresh_ns = 200;
    page_map_ns = 40;
    commit_base_ns = 5_000;
    update_base_ns = 2_500;
    barrier_phase1_page_ns = 60;
    commit_seal_page_ns = 80;
    token_ns = 150;
    counter_read_syscall_ns = 1_100;
    counter_read_user_ns = 60;
    overflow_interrupt_ns = 2_000;
    sync_op_base_ns = 300;
    wake_ns = 900;
    fork_base_ns = 12_000;
    fork_page_ns = 60;
    pool_reuse_ns = 1_800;
    gc_pages_per_ms = 800;
    gc_step_pages = 64;
    pthread_lock_ns = 60;
    pthread_unlock_ns = 45;
    pthread_barrier_ns = 500;
    pthread_cond_ns = 180;
    pthread_spawn_ns = 9_000;
    pthread_join_ns = 900;
    mem_op_instr_per_8bytes = 1;
    txn_validate_base_ns = 400;
    txn_validate_key_ns = 25;
    txn_abort_ns = 600;
    txn_backoff_ns = 2_000;
  }

let work_ns t prng n =
  if n <= 0 then 0
  else max 1 (Sim.Prng.jittered prng ~amplitude:t.jitter_amplitude ~scale:t.cpi_ns n)
