type t = { mutable words : Bytes.t }
(* Bytes rather than int array: bitsets dominate the Andersen baseline's
   memory, and byte-addressed words keep copies cheap. We store 8 bits per
   byte and manipulate them directly. *)

let bits_per_byte = 8

let byte_of i = i lsr 3
let bit_of i = i land 7

let create ?(capacity = 64) () =
  let nbytes = max 1 ((capacity + bits_per_byte - 1) / bits_per_byte) in
  { words = Bytes.make nbytes '\000' }

let capacity t = Bytes.length t.words * bits_per_byte

let ensure t i =
  if i >= capacity t then begin
    let needed = byte_of i + 1 in
    let nbytes = max needed (2 * Bytes.length t.words) in
    let words = Bytes.make nbytes '\000' in
    Bytes.blit t.words 0 words 0 (Bytes.length t.words);
    t.words <- words
  end

let mem t i =
  i >= 0 && i < capacity t
  && Char.code (Bytes.unsafe_get t.words (byte_of i)) land (1 lsl bit_of i) <> 0

let add t i =
  if i < 0 then invalid_arg "Bitset.add: negative member";
  ensure t i;
  let b = byte_of i and m = 1 lsl bit_of i in
  let old = Char.code (Bytes.unsafe_get t.words b) in
  if old land m <> 0 then false
  else begin
    Bytes.unsafe_set t.words b (Char.unsafe_chr (old lor m));
    true
  end

let remove t i =
  if i >= 0 && i < capacity t then begin
    let b = byte_of i and m = 1 lsl bit_of i in
    let old = Char.code (Bytes.unsafe_get t.words b) in
    Bytes.unsafe_set t.words b (Char.unsafe_chr (old land lnot m))
  end

(* Bytes up to and including src's highest *set* byte. Unions grow dst to
   this, not to src's capacity: sizing to capacity lets union cycles
   (a ⊇ b and b ⊇ a) ping-pong the doubling growth into exponentially
   larger allocations with no new members. *)
let used_bytes src =
  let n = ref (Bytes.length src.words) in
  while !n >= 8 && Bytes.get_int64_ne src.words (!n - 8) = 0L do
    n := !n - 8
  done;
  while !n > 0 && Bytes.unsafe_get src.words (!n - 1) = '\000' do
    decr n
  done;
  !n

let union_into ~dst ~src =
  let n = used_bytes src in
  if n * 8 > capacity dst then ensure dst ((n * 8) - 1);
  let changed = ref false in
  let b = ref 0 in
  (* 64-bit lanes over the full words, byte lane over the tail. *)
  while !b + 8 <= n do
    let s = Bytes.get_int64_ne src.words !b in
    if s <> 0L then begin
      let d = Bytes.get_int64_ne dst.words !b in
      let u = Int64.logor d s in
      if u <> d then begin
        Bytes.set_int64_ne dst.words !b u;
        changed := true
      end
    end;
    b := !b + 8
  done;
  while !b < n do
    let s = Char.code (Bytes.unsafe_get src.words !b) in
    (if s <> 0 then begin
       let d = Char.code (Bytes.unsafe_get dst.words !b) in
       let u = d lor s in
       if u <> d then begin
         Bytes.unsafe_set dst.words !b (Char.unsafe_chr u);
         changed := true
       end
     end);
    incr b
  done;
  !changed

let union_into_delta ~dst ~delta ~src =
  let n = used_bytes src in
  if n * 8 > capacity dst then ensure dst ((n * 8) - 1);
  if n * 8 > capacity delta then ensure delta ((n * 8) - 1);
  let changed = ref false in
  let b = ref 0 in
  while !b + 8 <= n do
    let s = Bytes.get_int64_ne src.words !b in
    if s <> 0L then begin
      let d = Bytes.get_int64_ne dst.words !b in
      let fresh = Int64.logand s (Int64.lognot d) in
      if fresh <> 0L then begin
        Bytes.set_int64_ne dst.words !b (Int64.logor d fresh);
        Bytes.set_int64_ne delta.words !b
          (Int64.logor (Bytes.get_int64_ne delta.words !b) fresh);
        changed := true
      end
    end;
    b := !b + 8
  done;
  while !b < n do
    let s = Char.code (Bytes.unsafe_get src.words !b) in
    let d = Char.code (Bytes.unsafe_get dst.words !b) in
    let fresh = s land lnot d in
    if fresh <> 0 then begin
      let m = Char.code (Bytes.unsafe_get delta.words !b) in
      Bytes.unsafe_set dst.words !b (Char.unsafe_chr (d lor fresh));
      Bytes.unsafe_set delta.words !b (Char.unsafe_chr (m lor fresh));
      changed := true
    end;
    incr b
  done;
  !changed

let intersects a b =
  let n = min (Bytes.length a.words) (Bytes.length b.words) in
  let hit = ref false in
  let i = ref 0 in
  while (not !hit) && !i + 8 <= n do
    if
      Int64.logand (Bytes.get_int64_ne a.words !i) (Bytes.get_int64_ne b.words !i)
      <> 0L
    then hit := true
    else i := !i + 8
  done;
  while (not !hit) && !i < n do
    if
      Char.code (Bytes.unsafe_get a.words !i)
      land Char.code (Bytes.unsafe_get b.words !i)
      <> 0
    then hit := true
    else incr i
  done;
  !hit

let popcount_byte =
  let tbl = Bytes.create 256 in
  for c = 0 to 255 do
    let rec count n acc = if n = 0 then acc else count (n lsr 1) (acc + (n land 1)) in
    Bytes.set tbl c (Char.chr (count c 0))
  done;
  fun c -> Char.code (Bytes.unsafe_get tbl c)

(* SWAR popcount of a 32-bit value held in a native int (OCaml ints are
   63-bit, so the 0x01010101 multiply cannot overflow). *)
let popcount32 x =
  let x = x - ((x lsr 1) land 0x55555555) in
  let x = (x land 0x33333333) + ((x lsr 2) land 0x33333333) in
  let x = (x + (x lsr 4)) land 0x0f0f0f0f in
  (x * 0x01010101) lsr 24 land 0xff

let cardinal t =
  let len = Bytes.length t.words in
  let n = ref 0 in
  let b = ref 0 in
  while !b + 8 <= len do
    let w = Bytes.get_int64_ne t.words !b in
    if w <> 0L then begin
      let lo = Int64.to_int w land 0xFFFFFFFF in
      let hi = Int64.to_int (Int64.shift_right_logical w 32) land 0xFFFFFFFF in
      n := !n + popcount32 lo + popcount32 hi
    end;
    b := !b + 8
  done;
  while !b < len do
    n := !n + popcount_byte (Char.code (Bytes.unsafe_get t.words !b));
    incr b
  done;
  !n

let is_empty t =
  let rec go b =
    b >= Bytes.length t.words
    || (Bytes.unsafe_get t.words b = '\000' && go (b + 1))
  in
  go 0

let clear t = Bytes.fill t.words 0 (Bytes.length t.words) '\000'

let iter f t =
  for b = 0 to Bytes.length t.words - 1 do
    let w = Char.code (Bytes.unsafe_get t.words b) in
    if w <> 0 then
      for bit = 0 to 7 do
        if w land (1 lsl bit) <> 0 then f ((b lsl 3) lor bit)
      done
  done

let fold f t init =
  let acc = ref init in
  iter (fun i -> acc := f i !acc) t;
  !acc

let elements t = List.rev (fold (fun i acc -> i :: acc) t [])

let copy t = { words = Bytes.copy t.words }

let equal a b =
  let la = Bytes.length a.words and lb = Bytes.length b.words in
  let common = min la lb in
  let rec eq_common i =
    i >= common || (Bytes.unsafe_get a.words i = Bytes.unsafe_get b.words i && eq_common (i + 1))
  in
  let rec zero w i l = i >= l || (Bytes.unsafe_get w i = '\000' && zero w (i + 1) l) in
  eq_common 0 && zero a.words common la && zero b.words common lb

let subset a b =
  let la = Bytes.length a.words and lb = Bytes.length b.words in
  let common = min la lb in
  let rec sub i =
    i >= common
    ||
    let wa = Char.code (Bytes.unsafe_get a.words i) in
    let wb = Char.code (Bytes.unsafe_get b.words i) in
    wa land lnot wb = 0 && sub (i + 1)
  in
  let rec zero i = i >= la || (Bytes.unsafe_get a.words i = '\000' && zero (i + 1)) in
  sub 0 && (common >= la || zero common)

let of_list l =
  let t = create () in
  List.iter (fun i -> ignore (add t i)) l;
  t

let pp ppf t =
  Format.fprintf ppf "{%a}"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
       Format.pp_print_int)
    (elements t)
