open Trace

type sink = {
  lock : Types.tid -> string -> Types.value -> unit;
  access : Types.tid -> Types.var -> is_write:bool -> eid:int -> Syncclock.epoch -> unit;
}

let fan_out = function
  | [] -> invalid_arg "Linear.fan_out: no sink"
  | s :: rest ->
      List.fold_left
        (fun a b ->
          { lock =
              (fun tid l v ->
                a.lock tid l v;
                b.lock tid l v);
            access =
              (fun tid x ~is_write ~eid e ->
                a.access tid x ~is_write ~eid e;
                b.access tid x ~is_write ~eid e) })
        s rest

type t = { clocks : Syncclock.t; causal : Causal.t }

let create ?start ~nthreads () =
  { clocks = Syncclock.create ~nthreads;
    causal =
      (match start with
      | Some cut -> Causal.restore cut
      | None -> Causal.create ~nthreads ()) }

(* One access in causal order.  Lock traffic reaches the sink before
   its clock update, so an acquire opens its own block. *)
let observe clocks sink tid var ~is_read ~value ~eid =
  if Types.is_sync_var var then begin
    (if not is_read then
       match Types.as_lock var with Some l -> sink.lock tid l value | None -> ());
    Syncclock.sync clocks tid var ~is_read
  end
  else sink.access tid var ~is_write:(not is_read) ~eid (Syncclock.access clocks tid)

let deliver t sink (m : Message.t) =
  let tid = m.Message.tid and value = m.Message.value and eid = m.Message.eid in
  match Types.as_read m.Message.var with
  | Some x -> observe t.clocks sink tid x ~is_read:true ~value ~eid
  | None -> observe t.clocks sink tid m.Message.var ~is_read:false ~value ~eid

let rec deliver_all t sink = function
  | [] -> ()
  | m :: rest ->
      deliver t sink m;
      deliver_all t sink rest

let feed t sink m = deliver_all t sink (Causal.feed t.causal m)

let replay exec sink =
  let clocks = Syncclock.create ~nthreads:(Exec.nthreads exec) in
  Array.iter
    (fun { Event.eid; tid; kind; _ } ->
      match kind with
      | Event.Internal -> ()
      | Event.Read (x, value) -> observe clocks sink tid x ~is_read:true ~value ~eid
      | Event.Write (x, value) -> observe clocks sink tid x ~is_read:false ~value ~eid)
    (Exec.events exec)

let end_of_thread t = Causal.end_of_thread t.causal
let finish t = Causal.finish t.causal
let nthreads t = Causal.nthreads t.causal
let buffered t = Causal.buffered t.causal
let mem_words t = Causal.mem_words t.causal
let missing t = Causal.missing t.causal
let next_index t tid = Causal.next_index t.causal tid

(* {1 Checkpointing} *)

let write lines t =
  let push = Engine.Snapshot.push lines in
  Syncclock.write lines t.clocks;
  let c = Causal.snapshot t.causal in
  let ints a = String.concat " " (Array.to_list (Array.map string_of_int a)) in
  push ("delivered " ^ ints c.Causal.snap_delivered);
  push ("ended " ^ ints (Array.map Bool.to_int c.Causal.snap_ended));
  push (Printf.sprintf "progress %d" c.Causal.snap_peak_buffered);
  Engine.Snapshot.push_counted lines "pending" c.Causal.snap_pending (fun (m : Message.t) ->
      [ Printf.sprintf "msg %d %d %s %d %s" m.Message.eid m.Message.tid m.Message.var
          m.Message.value (Vclock.to_string m.Message.mvc) ])

let read ~what r =
  let open Engine.Snapshot in
  let clocks = Syncclock.read ~what r in
  let delivered = Array.map (nat ~what) (fields ~what ~key:"delivered" r) in
  let ended =
    fields ~what ~key:"ended" ~n:(Array.length delivered) r
    |> Array.map (fun b -> (bools ~what ~width:1 b).(0))
  in
  let peak = nat ~what (fields ~what ~key:"progress" ~n:1 r).(0) in
  let pending =
    counted ~what ~key:"pending" r (fun () ->
        let f = fields ~what ~key:"msg" ~n:5 r in
        Message.make ~eid:(nat ~what f.(0)) ~tid:(nat ~what f.(1)) ~var:f.(2)
          ~value:(int ~what f.(3)) ~mvc:(clock ~what f.(4)))
  in
  let causal =
    Causal.restore
      { Causal.snap_delivered = delivered;
        snap_ended = ended;
        snap_pending = pending;
        snap_peak_buffered = peak }
  in
  { clocks = clocks ~nthreads:(Causal.nthreads causal); causal }
