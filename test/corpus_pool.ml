(* The 600 generated programs of the benchmark corpus, parsed. *)
let programs () = Wolf_fuzz.Twir_digest.read_corpus "../perfbench/corpus.txt"
