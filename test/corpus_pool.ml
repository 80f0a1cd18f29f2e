(* The 600 generated programs of the benchmark corpus, parsed.  Records in
   perfbench/corpus.txt are separated by "%% <args>" lines; the arguments
   are not needed here. *)
let programs () =
  let ic = open_in "../perfbench/corpus.txt" in
  let rec go acc cur =
    match input_line ic with
    | line when String.starts_with ~prefix:"%%" line ->
      let acc = match cur with Some b -> Buffer.contents b :: acc | None -> acc in
      go acc (Some (Buffer.create 256))
    | line ->
      Option.iter (fun b -> Buffer.add_string b line; Buffer.add_char b '\n') cur;
      go acc cur
    | exception End_of_file ->
      close_in ic;
      List.rev (match cur with Some b -> Buffer.contents b :: acc | None -> acc)
  in
  List.map Wolf_wexpr.Parser.parse (go [] None)
