type 'a t = {
  items : 'a array;
  next : int Atomic.t;
}

(* The queue is filled once and only drained afterwards, so an atomic cursor
   over an immutable array is both simpler and cheaper than a mutex-protected
   deque; it keeps the strict issue order the scheduler relies on. *)

let create items = { items; next = Atomic.make 0 }

let of_list l = create (Array.of_list l)

let pop t =
  let i = Atomic.fetch_and_add t.next 1 in
  if i < Array.length t.items then Some t.items.(i) else None

let remaining t =
  max 0 (Array.length t.items - Atomic.get t.next)
