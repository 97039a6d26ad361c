(* The observer's indexes: the per-frame provenance index and the causal
   span table.

   The contracts under test:
   - the provenance index is observationally identical to the plain
     interval list it replaced, order included: a QCheck differential
     drives both with the same random register/clear/blit/stash/restore
     sequences and compares every accessor, the destruction-order
     lifetime lists, the ledger totals and the breach emission order;
   - [Trace.root_of_trace] and [Trace.span_of_id] agree with a linear
     search over [Trace.spans] for arbitrary span nestings;
   - neither index reintroduces a quadratic: the minor words allocated by
     [Forensics.budget_table] over N traces, and by register/clear churn
     over N live intervals, at most slightly more than double when N
     doubles (a per-operation list rebuild makes them quadruple). *)

open Memguard
module Obs = Memguard_obs.Obs

(* ---- reference model: the interval-list registry ---- *)

(* The registry as a list, newest first; a partial clear replaces an
   interval in place by its left then right remainder.  Kept verbatim in
   behaviour so the index can be checked against it. *)
module Ref = struct
  type iv = { start : int; ilen : int; info : Obs.Provenance.info }

  type t = {
    mutable ivs : iv list;
    stashes : (int, (int * int * Obs.Provenance.info) list) Hashtbl.t;
    lifetimes : (Obs.origin, int list ref) Hashtbl.t;
    exposure : (Obs.origin * Obs.mem_class, int ref) Hashtbl.t;
    mutable last_advance : int;
    mutable breaches : (Obs.origin * Obs.mem_class * int * int * int * int) list;
        (* newest first *)
  }

  let create () =
    { ivs = [];
      stashes = Hashtbl.create 8;
      lifetimes = Hashtbl.create 8;
      exposure = Hashtbl.create 16;
      last_advance = 0;
      breaches = []
    }

  let record_lifetime m ~tick (info : Obs.Provenance.info) =
    let age = tick - info.Obs.Provenance.birth_tick in
    match Hashtbl.find_opt m.lifetimes info.Obs.Provenance.origin with
    | Some r -> r := age :: !r
    | None -> Hashtbl.replace m.lifetimes info.Obs.Provenance.origin (ref [ age ])

  let clear m ~tick ~addr ~len =
    if len > 0 then begin
      let e = addr + len in
      m.ivs <-
        List.concat_map
          (fun iv ->
            let s = iv.start and ie = iv.start + iv.ilen in
            if ie <= addr || s >= e then [ iv ]
            else begin
              record_lifetime m ~tick iv.info;
              (if s < addr then [ { iv with ilen = addr - s } ] else [])
              @ if ie > e then [ { start = e; ilen = ie - e; info = iv.info } ] else []
            end)
          m.ivs
    end

  let register m ~tick ~info ~addr ~len =
    if len > 0 then begin
      clear m ~tick ~addr ~len;
      m.ivs <- { start = addr; ilen = len; info } :: m.ivs
    end

  let overlaps m ~addr ~len =
    let e = addr + len in
    List.filter_map
      (fun iv ->
        let s = max iv.start addr and ie = min (iv.start + iv.ilen) e in
        if ie > s then Some (s - addr, ie - s, iv.info) else None)
      m.ivs

  let blit m ~tick ~src ~dst ~len =
    if len > 0 then begin
      let clones =
        List.map
          (fun (off, l, info) -> { start = dst + off; ilen = l; info })
          (overlaps m ~addr:src ~len)
      in
      clear m ~tick ~addr:dst ~len;
      m.ivs <- clones @ m.ivs
    end

  let stash m ~slot ~addr ~len = Hashtbl.replace m.stashes slot (overlaps m ~addr ~len)

  let restore m ~tick ~slot ~addr ~len =
    clear m ~tick ~addr ~len;
    (match Hashtbl.find_opt m.stashes slot with
     | Some entries ->
       m.ivs <-
         List.map (fun (off, l, info) -> { start = addr + off; ilen = l; info }) entries
         @ m.ivs
     | None -> ());
    Hashtbl.remove m.stashes slot

  let lookup m ~addr =
    List.find_opt (fun iv -> iv.start <= addr && addr < iv.start + iv.ilen) m.ivs
    |> Option.map (fun iv -> iv.info)

  let intervals m = List.map (fun iv -> (iv.start, iv.ilen, iv.info)) m.ivs |> List.sort compare

  let stashed m =
    Hashtbl.fold (fun slot entries acc -> (slot, entries) :: acc) m.stashes []
    |> List.sort compare

  let covering m ~addr ~len =
    let per_origin = Hashtbl.create 4 in
    List.iter
      (fun (_, l, (info : Obs.Provenance.info)) ->
        let o = info.Obs.Provenance.origin in
        match Hashtbl.find_opt per_origin o with
        | Some r -> r := !r + l
        | None -> Hashtbl.replace per_origin o (ref l))
      (overlaps m ~addr ~len);
    Hashtbl.fold (fun o r acc -> (o, !r) :: acc) per_origin [] |> List.sort compare

  let lifetimes m origin =
    match Hashtbl.find_opt m.lifetimes origin with Some r -> List.rev !r | None -> []

  (* the unmemoized ledger: sorted intervals split on frame boundaries,
     then the stashes in slot order *)
  let advance m ~classify ~gran ~breach_age t =
    if t > m.last_advance then begin
      let dt = t - m.last_advance in
      let add origin cls bytes =
        match Hashtbl.find_opt m.exposure (origin, cls) with
        | Some r -> r := !r + (bytes * dt)
        | None -> Hashtbl.replace m.exposure (origin, cls) (ref (bytes * dt))
      in
      let charge (info : Obs.Provenance.info) cls addr len =
        let origin = info.Obs.Provenance.origin in
        add origin cls len;
        if Obs.origin_sensitive origin && cls <> Obs.Mlocked_anon then begin
          let age = t - info.Obs.Provenance.birth_tick in
          let prev_age = m.last_advance - info.Obs.Provenance.birth_tick in
          if age >= breach_age && prev_age < breach_age then
            m.breaches <- (origin, cls, info.Obs.Provenance.pid, addr, len, age) :: m.breaches
        end
      in
      List.iter
        (fun (start, ilen, info) ->
          let e = start + ilen in
          let pos = ref start in
          while !pos < e do
            let next = min e (((!pos / gran) + 1) * gran) in
            charge info (classify ~addr:!pos) !pos (next - !pos);
            pos := next
          done)
        (intervals m);
      List.iter
        (fun (slot, entries) ->
          List.iter
            (fun (off, l, info) -> charge info Obs.Swapped ((slot * gran) + off) l)
            entries)
        (stashed m);
      m.last_advance <- t
    end

  let totals m =
    Hashtbl.fold (fun k r acc -> (k, !r) :: acc) m.exposure []
    |> List.filter (fun (_, v) -> v > 0)
    |> List.sort compare
end

(* ---- provenance differential ---- *)

type op =
  | Register of Obs.origin * int * int * int  (* origin, pid, addr, len *)
  | Clear of int * int
  | Blit of int * int * int  (* src, dst, len *)
  | Stash of int * int * int  (* slot, addr, len *)
  | Restore of int * int * int
  | Tick
  | Advance

let pp_op = function
  | Register (o, pid, a, l) -> Printf.sprintf "register(%s,%d,%d,%d)" (Obs.origin_name o) pid a l
  | Clear (a, l) -> Printf.sprintf "clear(%d,%d)" a l
  | Blit (s, d, l) -> Printf.sprintf "blit(%d,%d,%d)" s d l
  | Stash (s, a, l) -> Printf.sprintf "stash(%d,%d,%d)" s a l
  | Restore (s, a, l) -> Printf.sprintf "restore(%d,%d,%d)" s a l
  | Tick -> "tick"
  | Advance -> "advance"

(* eight 4 KiB frames; addresses cluster on frame edges so ranges cross
   boundaries, and lengths run past a page *)
let gen_addr =
  QCheck.Gen.(
    frequency
      [ (2, int_bound 32767);
        ( 3,
          map2
            (fun f o -> (f * 4096) + o)
            (int_bound 7)
            (oneofl [ 0; 64; 100; 2048; 4000; 4032; 4090 ]) ) ])

let gen_len =
  QCheck.Gen.(
    frequency
      [ (4, int_range 1 200); (2, int_range 1 4096); (1, int_range 4097 10000); (1, return 0) ])

let gen_op =
  QCheck.Gen.(
    frequency
      [ ( 5,
          map3
            (fun (o, pid) a l -> Register (o, pid, a, l))
            (pair (oneofl Obs.all_origins) (int_range 1 4))
            gen_addr gen_len );
        (3, map2 (fun a l -> Clear (a, l)) gen_addr gen_len);
        (2, map3 (fun s d l -> Blit (s, d, l)) gen_addr gen_addr gen_len);
        (1, map3 (fun s a l -> Stash (s, a, l)) (int_bound 3) gen_addr gen_len);
        (1, map3 (fun s a l -> Restore (s, a, l)) (int_bound 3) gen_addr gen_len);
        (2, return Tick);
        (1, return Advance) ])

let arb_case =
  QCheck.make
    ~print:(fun (gran, ops, probes) ->
      Printf.sprintf "gran=%d ops=[%s] probes=[%s]" gran
        (String.concat "; " (List.map pp_op ops))
        (String.concat ";" (List.map string_of_int probes)))
    QCheck.Gen.(
      triple (oneofl [ 512; 4096 ]) (list_size (int_range 1 80) gen_op)
        (list_size (return 24) (int_bound 40000)))

(* frames alternate between three classes, so chunks of one interval land
   in different ledger buckets *)
let classify gran ~addr =
  match addr / gran mod 3 with 0 -> Obs.Plain_anon | 1 -> Obs.Mlocked_anon | _ -> Obs.Cached

let breach_age = 2

let breaches obs =
  List.filter_map
    (fun (r : Obs.record) ->
      match r.Obs.event with
      | Obs.Exposure_breach { origin; cls; pid; addr; len; age } ->
        Some (origin, cls, pid, addr, len, age)
      | _ -> None)
    (Obs.Trace.records obs)

let prop_provenance_differential =
  QCheck.Test.make ~name:"provenance index = interval-list model (random op sequences)"
    ~count:300 arb_case (fun (gran, ops, probes) ->
      let obs = Obs.create () in
      (* frames start at 4 KiB and switch to [gran] halfway through, so
         the index is re-bucketed with intervals live *)
      let cur = ref 4096 in
      let set_gran g =
        cur := g;
        Obs.Exposure.set_classifier obs ~page_size:g (classify g)
      in
      set_gran 4096;
      Obs.Exposure.set_breach_age obs (Some breach_age);
      let m = Ref.create () in
      let show ivs =
        String.concat " "
          (List.map
             (fun (s, l, (i : Obs.Provenance.info)) ->
               Printf.sprintf "%d+%d:%s" s l (Obs.origin_name i.Obs.Provenance.origin))
             ivs)
      in
      let check_intervals where =
        let a = Obs.Provenance.intervals obs and b = Ref.intervals m in
        if a <> b then
          QCheck.Test.fail_reportf "intervals differ from the model %s:\n index %s\n model %s"
            where (show a) (show b)
      in
      let tick = ref 0 in
      List.iteri
        (fun k op ->
          check_intervals (Printf.sprintf "before op %d (%s)" k (pp_op op));
          if k = List.length ops / 2 then set_gran gran;
          let now = !tick in
          match op with
          | Register (origin, pid, addr, len) ->
            let info =
              { Obs.Provenance.origin; pid; birth_tick = now; birth_trace = 0; birth_span = 0 }
            in
            Obs.Provenance.register obs ~origin ~pid ~addr ~len;
            Ref.register m ~tick:now ~info ~addr ~len
          | Clear (addr, len) ->
            Obs.Provenance.clear obs ~addr ~len;
            Ref.clear m ~tick:now ~addr ~len
          | Blit (src, dst, len) ->
            Obs.Provenance.blit obs ~src ~dst ~len;
            Ref.blit m ~tick:now ~src ~dst ~len
          | Stash (slot, addr, len) ->
            Obs.Provenance.stash obs ~slot ~addr ~len;
            Ref.stash m ~slot ~addr ~len
          | Restore (slot, addr, len) ->
            Obs.Provenance.restore obs ~slot ~addr ~len;
            Ref.restore m ~tick:now ~slot ~addr ~len
          | Tick ->
            incr tick;
            Obs.set_tick obs !tick
          | Advance ->
            Obs.Exposure.advance obs now;
            Ref.advance m ~classify:(classify !cur) ~gran:!cur ~breach_age now)
        ops;
      (* one final advance past every op, so every live interval accrues *)
      let final = !tick + 3 in
      Obs.Exposure.advance obs final;
      Ref.advance m ~classify:(classify !cur) ~gran:!cur ~breach_age final;
      check_intervals "after the last op";
      let fail what = QCheck.Test.fail_reportf "%s differs from the model" what in
      if Obs.Provenance.stashed obs <> Ref.stashed m then fail "stashed"
      else if Obs.Provenance.count obs <> List.length m.Ref.ivs then fail "count"
      else if
        List.exists
          (fun a -> Obs.Provenance.lookup obs ~addr:a <> Ref.lookup m ~addr:a)
          (probes @ List.concat_map (fun (s, l, _) -> [ s; s + l - 1; s + l ]) (Ref.intervals m))
      then fail "lookup"
      else if
        List.exists
          (fun a ->
            Obs.Provenance.covering obs ~addr:a ~len:5000 <> Ref.covering m ~addr:a ~len:5000)
          probes
      then fail "covering"
      else if
        List.exists
          (fun o -> Obs.Exposure.lifetimes obs o <> Ref.lifetimes m o)
          Obs.all_origins
      then fail "lifetimes"
      else if Obs.Exposure.totals obs <> Ref.totals m then fail "exposure totals"
      else if breaches obs <> List.rev m.Ref.breaches then fail "breach emission order"
      else true)

(* ---- span index ---- *)

type span_op =
  | Begin of int * int option * int option  (* pid, ~trace, ~parent *)
  | End_open of int  (* end the k-th open span, innermost = 0 *)
  | End_id of int  (* end an arbitrary id (often not open: a no-op) *)
  | Step

let gen_span_ops =
  QCheck.Gen.(
    list_size (int_range 1 120)
      (frequency
         [ ( 5,
             map3
               (fun pid trace parent -> Begin (pid, trace, parent))
               (int_bound 3)
               (opt ~ratio:0.3 (int_range 1 6))
               (opt ~ratio:0.3 (int_bound 20)) );
           (3, map (fun k -> End_open k) (int_bound 3));
           (1, map (fun i -> End_id i) (int_bound 40));
           (1, return Step) ]))

let prop_span_index =
  QCheck.Test.make ~name:"span index = linear search over Trace.spans" ~count:300
    (QCheck.make gen_span_ops) (fun ops ->
      let obs = Obs.create () in
      let open_ = ref [] in
      let tick = ref 0 in
      List.iter
        (fun op ->
          match op with
          | Begin (pid, trace, parent) ->
            open_ := Obs.Trace.begin_span ~pid ?trace ?parent obs "s" :: !open_
          | End_open k -> (
            match List.nth_opt !open_ k with
            | Some id ->
              Obs.Trace.end_span obs id;
              (* ending an outer span pops every inner one with it *)
              open_ := List.filteri (fun i _ -> i > k) !open_
            | None -> ())
          | End_id id ->
            Obs.Trace.end_span obs id;
            (match List.find_index (( = ) id) !open_ with
             | Some k -> open_ := List.filteri (fun i _ -> i > k) !open_
             | None -> ())
          | Step ->
            incr tick;
            Obs.set_tick obs !tick)
        ops;
      let spans = Obs.Trace.spans obs in
      let ids = List.map (fun s -> s.Obs.Trace.sp_id) spans in
      ids = List.init (List.length spans) (fun i -> i + 1)
      && List.for_all
           (fun t ->
             Obs.Trace.root_of_trace obs t
             = List.find_opt
                 (fun s -> s.Obs.Trace.sp_trace = t && s.Obs.Trace.sp_parent = 0)
                 spans)
           (List.init (Obs.Trace.trace_count obs + 8) Fun.id)
      && List.for_all
           (fun id ->
             Obs.Trace.span_of_id obs id
             = List.find_opt (fun s -> s.Obs.Trace.sp_id = id) spans)
           (-1 :: List.init (List.length spans + 3) Fun.id))

(* ---- complexity guards ---- *)

(* minor words allocated by [f] alone; exact and reproducible run to run *)
let minor_words f =
  let w0 = Gc.minor_words () in
  ignore (Sys.opaque_identity (f ()));
  Gc.minor_words () -. w0

let check_doubling name measure n =
  let a = measure n and b = measure (2 * n) in
  let ratio = b /. a in
  if ratio > 2.3 then
    Alcotest.failf "%s: %.0f minor words at N=%d, %.0f at 2N — ratio %.2f > 2.3" name a n b
      ratio

(* N requests, each a root span with a child that registers one copy;
   one ledger advance gives every trace a leak budget *)
let traced_obs n =
  let obs = Obs.create () in
  Obs.Exposure.set_classifier obs ~page_size:4096 (fun ~addr:_ -> Obs.Plain_anon);
  for i = 0 to n - 1 do
    Obs.Trace.with_span obs "conn" (fun () ->
        Obs.Trace.with_span obs "kernel.fault" (fun () ->
            Obs.Provenance.register obs ~origin:Obs.Heap_copy ~pid:1 ~addr:(i * 64) ~len:32))
  done;
  Obs.Exposure.advance obs 1;
  obs

let test_budget_table_linear () =
  check_doubling "Forensics.budget_table"
    (fun n ->
      let obs = traced_obs n in
      Alcotest.(check int) "one budget row per trace" n
        (List.length (Forensics.budget_table obs));
      minor_words (fun () -> Forensics.budget_table obs))
    2000

(* N live intervals, one per frame; then clear and re-register each *)
let test_provenance_churn_linear () =
  check_doubling "Provenance register/clear churn"
    (fun n ->
      let obs = Obs.create () in
      for i = 0 to n - 1 do
        Obs.Provenance.register obs ~origin:Obs.Bn_limbs ~pid:1 ~addr:(i * 4096) ~len:64
      done;
      minor_words (fun () ->
          for i = 0 to n - 1 do
            Obs.Provenance.clear obs ~addr:(i * 4096) ~len:64;
            Obs.Provenance.register obs ~origin:Obs.Bn_limbs ~pid:1 ~addr:(i * 4096) ~len:64
          done))
    1000

let suite =
  [ ( "index",
      [ QCheck_alcotest.to_alcotest prop_provenance_differential;
        QCheck_alcotest.to_alcotest prop_span_index;
        Alcotest.test_case "budget_table linear in traces" `Quick test_budget_table_linear;
        Alcotest.test_case "provenance churn linear in live intervals" `Quick
          test_provenance_churn_linear
      ] )
  ]
