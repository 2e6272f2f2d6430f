module Graph = Lipsin_topology.Graph
module Assignment = Lipsin_core.Assignment
module Node_engine = Lipsin_forwarding.Node_engine
module Fastpath = Lipsin_forwarding.Fastpath
module Obs = Lipsin_obs.Obs

(* Telemetry: engine/compile churn.  All rare control-plane events. *)
let m_engine_creates =
  Obs.Counter.make ~help:"Reference node engines instantiated lazily"
    "lipsin_engine_creates_total"

let m_fastpath_compiles =
  Obs.Counter.make ~help:"Fast-path table compilations"
    "lipsin_fastpath_compiles_total"

let m_invalidations =
  Obs.Counter.make ~help:"Fast-path compilations invalidated by link events"
    "lipsin_fastpath_invalidations_total"

let m_ticks =
  Obs.Counter.make ~help:"Loop-cache clock ticks across all nets"
    "lipsin_net_ticks_total"

type t = {
  assignment : Assignment.t;
  fill_limit : float option;
  loop_prevention : bool;
  engines : Node_engine.t option array;
  fastpaths : Fastpath.t option array;
  mutable generation : int;
      (* bumped whenever a cached compilation is dropped, so holders of
         compiled-engine snapshots (Arena) can detect staleness cheaply *)
}

let make ?fill_limit ?(loop_prevention = true) assignment =
  let n = Graph.node_count (Assignment.graph assignment) in
  {
    assignment;
    fill_limit;
    loop_prevention;
    engines = Array.make n None;
    fastpaths = Array.make n None;
    generation = 0;
  }

let assignment t = t.assignment
let graph t = Assignment.graph t.assignment
let generation t = t.generation
let loop_prevention t = t.loop_prevention

let engine t node =
  match t.engines.(node) with
  | Some e -> e
  | None ->
    let e =
      match t.fill_limit with
      | Some fill_limit ->
        Node_engine.create ~fill_limit ~loop_prevention:t.loop_prevention
          t.assignment node
      | None ->
        Node_engine.create ~loop_prevention:t.loop_prevention t.assignment node
    in
    t.engines.(node) <- Some e;
    Obs.Counter.incr m_engine_creates;
    e

let engine_of = engine

(* Debug guardrail: with LIPSIN_FASTPATH_AUDIT set, every compile is
   re-verified against the blob-layout invariants before it can serve a
   decision.  Read per compile (compiles are rare) so no global state is
   introduced — this module is reachable from the Domain-parallel
   delivery path. *)
let audit_enabled () = Sys.getenv_opt "LIPSIN_FASTPATH_AUDIT" <> None

let audit ~caller node f =
  if audit_enabled () then begin
    match Lipsin_analysis.Audit.audit f with
    | [] -> ()
    | violations ->
      invalid_arg
        (Printf.sprintf "Net.%s: audit of node %d's compile failed: %s" caller node
           (String.concat "; "
              (List.map Lipsin_analysis.Audit.to_string violations)))
  end

let fastpath t node =
  match t.fastpaths.(node) with
  | Some f -> f
  | None ->
    let f = Fastpath.compile (engine t node) in
    audit ~caller:"fastpath" node f;
    t.fastpaths.(node) <- Some f;
    Obs.Counter.incr m_fastpath_compiles;
    f

let compiled t = t.fastpaths

(* A stitch change patches the compiled rows in place: the engine keeps
   its other rows, its loop cache and its clock, and holders of the
   compiled array see the new entries without a recompile. *)
let restitch t node =
  match t.fastpaths.(node) with
  | None -> ()
  | Some f ->
    Fastpath.restitch f (Node_engine.stitches (engine t node));
    audit ~caller:"restitch" node f

let invalidate_fastpath t node =
  if t.fastpaths.(node) <> None then Obs.Counter.incr m_invalidations;
  t.fastpaths.(node) <- None;
  t.generation <- t.generation + 1

(* The engines' clocks only age loop-cache entries, so a net without
   loop prevention has nothing to advance. *)
let tick t =
  Obs.Counter.incr m_ticks;
  if t.loop_prevention then begin
    Array.iter
      (function Some e -> Node_engine.tick e | None -> ())
      t.engines;
    Array.iter
      (function Some f -> Fastpath.tick f | None -> ())
      t.fastpaths
  end

let fail_link t link =
  Node_engine.fail_link (engine t link.Graph.src) link;
  invalidate_fastpath t link.Graph.src

let restore_link t link =
  Node_engine.restore_link (engine t link.Graph.src) link;
  invalidate_fastpath t link.Graph.src

let verify ?(samples = 0) ?(seed = 0x11) t =
  let model =
    Lipsin_analysis.Netcheck.model_of_engines t.assignment
      ~engine_of:(engine t)
  in
  let rng = Lipsin_util.Rng.of_int seed in
  Lipsin_analysis.Netcheck.check_deployment ~samples ~rng model

(* Debug guardrail mirroring the fastpath audit gate: with
   LIPSIN_NETCHECK set, every Net is statically verified at build time
   and refused if the deployment admits an Error-severity finding
   (uncatchable loop, LIT collision, unsound recovery).  Read per make
   (makes are rare) so no global state is introduced. *)
let netcheck_enabled () =
  match Sys.getenv_opt "LIPSIN_NETCHECK" with
  | None | Some "" -> false
  | Some _ -> true

let make ?fill_limit ?loop_prevention assignment =
  let t = make ?fill_limit ?loop_prevention assignment in
  if netcheck_enabled () then begin
    match Lipsin_analysis.Netcheck.errors (verify t) with
    | [] -> ()
    | errs ->
      invalid_arg
        (Printf.sprintf "Net.make: deployment verification failed: %s"
           (String.concat "; "
              (List.map Lipsin_analysis.Netcheck.to_string errs)))
  end;
  t
