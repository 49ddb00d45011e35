let log2_label i = Printf.sprintf "2^%d" i

let bucket ~buckets v =
  let rec log2 n acc = if n <= 1 then acc else log2 (n lsr 1) (acc + 1) in
  min (buckets - 1) (log2 (max 1 v) 0)

let observe h v =
  let b = bucket ~buckets:(Array.length h) v in
  h.(b) <- h.(b) + 1

let of_values ~buckets values =
  let h = Array.make buckets 0 in
  Array.iter
    (fun v ->
      let b = bucket ~buckets v in
      h.(b) <- h.(b) + 1)
    values;
  h

let render ppf ~bucket_label ~series =
  match series with
  | [] -> ()
  | (_, first) :: _ ->
      let buckets = Array.length first in
      let max_count =
        List.fold_left
          (fun acc (_, counts) -> Array.fold_left max acc counts)
          1 series
      in
      let bar n =
        let width = 40 * n / max_count in
        String.make width '#'
      in
      Format.fprintf ppf "%-6s" "bucket";
      List.iter (fun (name, _) -> Format.fprintf ppf "  %12s" name) series;
      Format.fprintf ppf "@.";
      for b = 0 to buckets - 1 do
        Format.fprintf ppf "%-6s" (bucket_label b);
        List.iter
          (fun (_, counts) -> Format.fprintf ppf "  %12d" counts.(b))
          series;
        Format.fprintf ppf "  |%s@." (bar first.(b))
      done
