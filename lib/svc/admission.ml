type 'a t = { q : 'a Queue.t; lock : Mutex.t }

let create () = { q = Queue.create (); lock = Mutex.create () }

let with_lock t f =
  Mutex.lock t.lock;
  match f () with
  | v ->
      Mutex.unlock t.lock;
      v
  | exception e ->
      Mutex.unlock t.lock;
      raise e

let depth t = with_lock t (fun () -> Queue.length t.q)
let add t x = with_lock t (fun () -> Queue.add x t.q)

let peek t = with_lock t (fun () -> Queue.peek_opt t.q)

let take t ~max =
  with_lock t (fun () ->
      let rec go n acc =
        if n = 0 then List.rev acc
        else
          match Queue.take_opt t.q with
          | None -> List.rev acc
          | Some x -> go (n - 1) (x :: acc)
      in
      go (Stdlib.max 0 max) [])
