type t = {
  abort_handling : bool;
  inline_level : int;
  opt_level : int;
  static_constants : bool;
  memory_management : bool;
  lint : bool;
  self_name : string option;
  target_system : string;
  dump_after : string list;
  use_cache : bool;
  loop_opts : bool;
  abort_stride : int;
  profile : bool;
  parallel_loops : bool;
}

let default = {
  abort_handling = true;
  inline_level = 1;
  opt_level = 1;
  static_constants = true;
  memory_management = true;
  lint = true;
  self_name = None;
  target_system = "LLVM";
  dump_after = [];
  use_cache = true;
  loop_opts = true;
  abort_stride = 1024;
  profile = false;
  parallel_loops = false;
}

let to_macro_options t =
  [ ("AbortHandling", Wolf_wexpr.Expr.bool t.abort_handling);
    ("TargetSystem", Wolf_wexpr.Expr.str t.target_system);
    ("InlineLevel", Wolf_wexpr.Expr.int t.inline_level) ]

(* Every field participates so that any option change produces a distinct
   compile-cache key. *)
let fingerprint t =
  String.concat ";"
    [ "abort=" ^ string_of_bool t.abort_handling;
      "inline=" ^ string_of_int t.inline_level;
      "opt=" ^ string_of_int t.opt_level;
      "consts=" ^ string_of_bool t.static_constants;
      "mem=" ^ string_of_bool t.memory_management;
      "lint=" ^ string_of_bool t.lint;
      "self=" ^ Option.value ~default:"" t.self_name;
      "target=" ^ t.target_system;
      "dump=" ^ String.concat "," t.dump_after;
      "cache=" ^ string_of_bool t.use_cache;
      "loops=" ^ string_of_bool t.loop_opts;
      "stride=" ^ string_of_int t.abort_stride;
      "profile=" ^ string_of_bool t.profile;
      "parloops=" ^ string_of_bool t.parallel_loops ]
