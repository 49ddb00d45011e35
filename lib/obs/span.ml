type t = {
  mutable sp_admit_us : float;
  mutable sp_batch_us : float;
  mutable sp_sched_us : float;
  mutable sp_solve_start_us : float;
  mutable sp_solve_end_us : float;
  mutable sp_respond_us : float;
}

type breakdown = {
  bd_queue_wait_us : float;
  bd_batch_wait_us : float;
  bd_solve_us : float;
  bd_respond_us : float;
}

let create ~admit_us =
  {
    sp_admit_us = admit_us;
    sp_batch_us = admit_us;
    sp_sched_us = admit_us;
    sp_solve_start_us = admit_us;
    sp_solve_end_us = admit_us;
    sp_respond_us = admit_us;
  }

let stamp_batch t ~us = t.sp_batch_us <- us
let stamp_sched t ~us = t.sp_sched_us <- us

let stamp_solve t ~start_us ~end_us =
  t.sp_solve_start_us <- start_us;
  t.sp_solve_end_us <- end_us

let stamp_respond t ~us = t.sp_respond_us <- us

(* Consecutive stamp differences, clamped at zero so a mixed clock (tests
   drive submit/pump with a logical [now] while solve stamps are wall
   clock) can never produce a negative stage. When the stamps are monotone
   — every real-clock run — the four stages telescope to exactly
   [sp_respond_us - sp_admit_us]. *)
let breakdown t =
  let stage a b = Float.max 0.0 (b -. a) in
  {
    bd_queue_wait_us = stage t.sp_admit_us t.sp_batch_us;
    bd_batch_wait_us = stage t.sp_batch_us t.sp_solve_start_us;
    bd_solve_us = stage t.sp_solve_start_us t.sp_solve_end_us;
    bd_respond_us = stage t.sp_solve_end_us t.sp_respond_us;
  }

let total_us bd =
  bd.bd_queue_wait_us +. bd.bd_batch_wait_us +. bd.bd_solve_us
  +. bd.bd_respond_us

let zero =
  {
    bd_queue_wait_us = 0.0;
    bd_batch_wait_us = 0.0;
    bd_solve_us = 0.0;
    bd_respond_us = 0.0;
  }

let stage_names = [ "queue"; "batch"; "solve"; "respond" ]

let stage_values bd =
  [
    bd.bd_queue_wait_us; bd.bd_batch_wait_us; bd.bd_solve_us;
    bd.bd_respond_us;
  ]

let breakdown_fields bd =
  [
    ("queue_wait_us", Json.Float bd.bd_queue_wait_us);
    ("batch_wait_us", Json.Float bd.bd_batch_wait_us);
    ("solve_us", Json.Float bd.bd_solve_us);
    ("respond_us", Json.Float bd.bd_respond_us);
  ]
