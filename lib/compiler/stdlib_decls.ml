open Wolf_wexpr

let p = Parser.parse

let build () =
  let env = Type_env.create ~parent:(Type_env.builtin ()) "stdlib" in
  (* Min and Max of two Integer64 are the builtin rows, declared here ahead
     of the polymorphic form: a row is one value the range analysis and the
     abort stride read, where the inlined If is a join *)
  let i64_pair = Types.mono (Types.fn [ Types.int64; Types.int64 ] Types.int64) in
  Type_env.declare env "Min" i64_pair (Type_env.Prim "binary_min");
  Type_env.declare env "Max" i64_pair (Type_env.Prim "binary_max");
  (* the paper's Min, verbatim modulo surface syntax (§4.4):
       tyEnv["declareFunction", Min,
         Typed[TypeForAll[{"a"}, {"a" ∈ "Ordered"}, {"a","a"} -> "a"]]@
           Function[{e1, e2}, If[e1 < e2, e1, e2]] *)
  Type_env.declare_wolfram env "Min"
    ~spec:(p {|TypeForAll[{"a"}, {Element["a", "Ordered"]}, {"a", "a"} -> "a"]|})
    ~body:(p "Function[{e1, e2}, If[e1 < e2, e1, e2]]");
  Type_env.declare_wolfram env "Max"
    ~spec:(p {|TypeForAll[{"a"}, {Element["a", "Ordered"]}, {"a", "a"} -> "a"]|})
    ~body:(p "Function[{e1, e2}, If[e1 < e2, e2, e1]]");
  (* and the paper's container form: Min over any rank-1 packed array *)
  Type_env.declare_wolfram env "Min"
    ~spec:(p {|TypeForAll[{"a"}, {Element["a", "Ordered"], Element["a", "Number"]},
                {"PackedArray"["a", 1]} -> "a"]|})
    ~body:(p {|Function[{arry},
                Module[{m = arry[[1]], i = 2, n = Length[arry]},
                 While[i <= n, If[arry[[i]] < m, m = arry[[i]]]; i = i + 1];
                 m]]|});
  Type_env.declare_wolfram env "Max"
    ~spec:(p {|TypeForAll[{"a"}, {Element["a", "Ordered"], Element["a", "Number"]},
                {"PackedArray"["a", 1]} -> "a"]|})
    ~body:(p {|Function[{arry},
                Module[{m = arry[[1]], i = 2, n = Length[arry]},
                 While[i <= n, If[arry[[i]] > m, m = arry[[i]]]; i = i + 1];
                 m]]|});
  Type_env.declare_wolfram env "Clip"
    ~spec:(p {|TypeForAll[{"a"}, {Element["a", "Ordered"]}, {"a", "a", "a"} -> "a"]|})
    ~body:(p "Function[{x, lo, hi}, If[x < lo, lo, If[x > hi, hi, x]]]");
  Type_env.declare_wolfram env "Sign"
    ~spec:(p {|TypeSpecifier[{"Integer64"} -> "Integer64"]|})
    ~body:(p "Function[{x}, If[x > 0, 1, If[x < 0, -1, 0]]]");
  Type_env.declare_wolfram env "Sign"
    ~spec:(p {|TypeSpecifier[{"Real64"} -> "Integer64"]|})
    ~body:(p "Function[{x}, If[x > 0.0, 1, If[x < 0.0, -1, 0]]]");
  Type_env.declare_wolfram env "Mean"
    ~spec:(p {|TypeSpecifier[{"PackedArray"["Real64", 1]} -> "Real64"]|})
    ~body:(p "Function[{v}, Total[v] / N[Length[v]]]");
  Type_env.declare_wolfram env "Norm"
    ~spec:(p {|TypeSpecifier[{"PackedArray"["Real64", 1]} -> "Real64"]|})
    ~body:(p {|Function[{v},
                Module[{s = 0.0, i = 1, n = Length[v]},
                 While[i <= n, s = s + v[[i]]*v[[i]]; i = i + 1];
                 Sqrt[s]]]|});
  Type_env.declare_wolfram env "Fibonacci"
    ~spec:(p {|TypeSpecifier[{"Integer64"} -> "Integer64"]|})
    ~body:(p {|Function[{n},
                Module[{a = 0, b = 1, i = 0, t = 0},
                 While[i < n, t = a + b; a = b; b = t; i = i + 1];
                 a]]|});
  Type_env.declare_wolfram env "GCD"
    ~spec:(p {|TypeSpecifier[{"Integer64", "Integer64"} -> "Integer64"]|})
    ~body:(p {|Function[{a0, b0},
                Module[{a = Abs[a0], b = Abs[b0], t = 0},
                 While[b != 0, t = Mod[a, b]; a = b; b = t];
                 a]]|});
  env

let base = Wolf_base.Once.make build
let env () = Type_env.copy (Wolf_base.Once.get base)
