(* Cost-based plan choice (PR 10) — see the .mli for the model.

   Estimation discipline: per-column cardinalities are exact (probed
   from the A arrays during planning, a charged but tiny cost the
   plans all share); cross-column composition assumes independence.
   The chosen plan carries its estimates so execution can feed the
   estimate-vs-actual error histograms. *)

type probe = { lo : int; hi : int; z : int }
type col_info = { column : string; probes : probe list; z : int }

type action =
  | Exact_inter
  | Prefilter of { epsilon : float }
  | Residual

type step = { info : col_info; action : action }

type shape =
  | Const_empty
  | All_rows
  | Count_directory of col_info
  | Scan of { driver : col_info; steps : step list }

type t = {
  shape : shape;
  kind : Ast.kind;
  est_result : float;
  est_verify : float;
  est_ios : float;
  considered : int;
}

let probe_columns table (nq : Ast.normal) =
  List.map
    (fun (column, ranges) ->
      let idx = Ridint.Table.col_index table column in
      let probes =
        List.map
          (fun (lo, hi) ->
            let s, e = Secidx.Static_index.entry_bounds idx ~lo ~hi in
            { lo; hi; z = e - s })
          ranges
      in
      {
        column;
        probes;
        z = List.fold_left (fun a (p : probe) -> a + p.z) 0 probes;
      })
    nq.columns

(* ε grid for the prefilter decision: coarse enough to keep the
   enumeration tiny, wide enough that the verification-vs-hashed-bits
   tradeoff has somewhere to move. *)
let eps_grid = [ 0.5; 0.1; 0.01 ]

(* Exact decode of a whole column: one plan per range (batched at
   execution time, but the payload volume estimate is additive). *)
let exact_col_io cost info =
  List.fold_left
    (fun acc (p : probe) -> acc +. Cost.exact_ios cost ~z:p.z)
    0.0 info.probes

type opt = { action : action; io : float }

(* Candidate-set survival ratio of a non-driver step, under
   independence: exact intersection keeps sel; a prefilter keeps sel
   plus an ε false-positive share of the rest; a residual column does
   not reduce candidates before verification at all. *)
let survival ~sel = function
  | Exact_inter -> sel
  | Prefilter { epsilon; _ } -> sel +. (epsilon *. (1.0 -. sel))
  | Residual -> 1.0

let col_options cost table info =
  let base =
    [
      { action = Exact_inter; io = exact_col_io cost info };
      { action = Residual; io = 0.0 };
    ]
  in
  match Ridint.Table.col_approx table info.column with
  | None -> base
  | Some a ->
      let k = Secidx.Approx_index.k a in
      let prefilters =
        List.map
          (fun epsilon ->
            let io =
              List.fold_left
                (fun acc (p : probe) ->
                  let l = Secidx.Approx_index.level a ~epsilon ~z:p.z in
                  if l > k then acc +. Cost.exact_ios cost ~z:p.z
                  else acc +. Cost.prefilter_ios cost ~level:l ~z:p.z)
                0.0 info.probes
            in
            { action = Prefilter { epsilon }; io })
          eps_grid
      in
      prefilters @ base

(* Full cost of one (driver, per-column action) assignment. *)
let eval cost ~probe_io driver combo =
  let n = float_of_int cost.Cost.n in
  let io = ref (probe_io +. exact_col_io cost driver) in
  let cand = ref (float_of_int driver.z) in
  let result = ref (float_of_int driver.z) in
  let needs_verify = ref false in
  List.iter
    (fun (info, o) ->
      let sel = float_of_int info.z /. n in
      io := !io +. o.io;
      result := !result *. sel;
      cand := !cand *. survival ~sel o.action;
      match o.action with Exact_inter -> () | _ -> needs_verify := true)
    combo;
  let est_verify = if !needs_verify then !cand else 0.0 in
  io := !io +. Cost.verify_ios cost ~rows:est_verify;
  (!io, !result, est_verify)

let rec product = function
  | [] -> [ [] ]
  | opts :: rest ->
      let tails = product rest in
      List.concat_map (fun o -> List.map (fun t -> o :: t) tails) opts

(* Beyond the exhaustive cap, one pass of coordinate descent: score
   each column's options with every other column held at exact
   intersection, keep the per-column winners as the single combo. *)
let greedy cost ~probe_io driver others opts =
  let considered = ref 0 in
  let combo =
    List.map2
      (fun info opts ->
        let rest =
          List.filter_map
            (fun i ->
              if i.column = info.column then None
              else Some (i, { action = Exact_inter; io = exact_col_io cost i }))
            others
        in
        let best =
          List.fold_left
            (fun acc o ->
              incr considered;
              let io, _, _ = eval cost ~probe_io driver ((info, o) :: rest) in
              match acc with
              | Some (_, best_io) when best_io <= io -> acc
              | _ -> Some (o, io))
            None opts
        in
        (info, fst (Option.get best)))
      others opts
  in
  (combo, !considered)

let enumerate cost table infos kind =
  let probe_io =
    Cost.probe_ios cost
      ~ranges:(List.fold_left (fun a i -> a + List.length i.probes) 0 infos)
  in
  let considered = ref 0 in
  let best = ref None in
  List.iter
    (fun driver ->
      let others = List.filter (fun i -> i.column <> driver.column) infos in
      let opts = List.map (col_options cost table) others in
      let combos =
        let size = List.fold_left (fun a o -> a * List.length o) 1 opts in
        if size <= 512 then (
          let cs = product opts in
          considered := !considered + List.length cs;
          List.map (fun c -> List.combine others c) cs)
        else
          let combo, c = greedy cost ~probe_io driver others opts in
          considered := !considered + c + 1;
          [ combo ]
      in
      List.iter
        (fun combo ->
          let io, result, verify = eval cost ~probe_io driver combo in
          match !best with
          | Some (_, _, _, _, best_io) when best_io <= io -> ()
          | _ -> best := Some (driver, combo, result, verify, io))
        combos)
    infos;
  let driver, combo, est_result, est_verify, est_ios = Option.get !best in
  (* Execution order: candidate-reducing steps first (most selective
     leading), residual checks at verification time. *)
  let filters, residuals =
    List.partition (fun (_, o) -> o.action <> Residual) combo
  in
  let filters = List.sort (fun (a, _) (b, _) -> compare a.z b.z) filters in
  let steps =
    List.map (fun (info, o) -> { info; action = o.action }) (filters @ residuals)
  in
  {
    shape = Scan { driver; steps };
    kind;
    est_result;
    est_verify;
    est_ios;
    considered = !considered;
  }

(* A plan whose shape is fixed without weighing costs. *)
let fixed ?(est_result = 0.0) ?(est_ios = 0.0) kind shape =
  { shape; kind; est_result; est_verify = 0.0; est_ios; considered = 1 }

let choose cost table (nq : Ast.normal) =
  let kind = nq.kind in
  if nq.empty then fixed kind Const_empty
  else
    match (probe_columns table nq, kind) with
    | [], _ ->
        fixed kind All_rows
          ~est_result:(float_of_int (Ridint.Table.rows table))
    | [ info ], Ast.Count ->
        fixed kind (Count_directory info) ~est_result:(float_of_int info.z)
          ~est_ios:(Cost.probe_ios cost ~ranges:(List.length info.probes))
    | infos, _ -> enumerate cost table infos kind

let smallest_first ?epsilon table (nq : Ast.normal) =
  let kind = nq.kind in
  let action info =
    match (epsilon, Ridint.Table.col_approx table info.column) with
    | None, _ -> Exact_inter
    | Some epsilon, Some _ -> Prefilter { epsilon }
    | Some _, None -> invalid_arg "Plan.smallest_first: built without approx"
  in
  if nq.empty then fixed kind Const_empty
  else
    match List.sort (fun a b -> compare a.z b.z) (probe_columns table nq) with
    | [] -> fixed kind All_rows
    | driver :: others ->
        let steps = List.map (fun info -> { info; action = action info }) others in
        fixed kind (Scan { driver; steps })

let describe t =
  let col info = Printf.sprintf "%s(z=%d)" info.column info.z in
  match t.shape with
  | Const_empty -> "const-empty"
  | All_rows -> "all-rows"
  | Count_directory info -> Printf.sprintf "count-directory %s" (col info)
  | Scan { driver; steps } ->
      let step (s : step) =
        match s.action with
        | Exact_inter -> Printf.sprintf "%s:exact" (col s.info)
        | Prefilter { epsilon; _ } ->
            Printf.sprintf "%s:prefilter(%.2f)" (col s.info) epsilon
        | Residual -> Printf.sprintf "%s:residual" (col s.info)
      in
      Printf.sprintf "scan driver=%s steps=[%s]" (col driver)
        (String.concat " " (List.map step steps))
